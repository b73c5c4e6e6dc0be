"""Outlier scores from cluster membership and centralities, low = suspicious.

Each vertex gets six scores.  Every score sums a bracketed term over the
clusters containing the vertex and multiplies by a leading fraction:

* score_1 = (1/3) sum[ |C|/c_max + |S|/s_max + deg/deg_max ]
* score_2 = (1/3) sum[ |C|/c_max + |S|/s_max + ec/ec_max ]
* score_3 = (1/3) sum[ |C|/c_max + |S|/s_max + bc/bc_max ]
* score_4 = (1/4) sum[ A + ec/ec_max ]
* score_5 = (1/4) sum[ A + bc/bc_max ]
* score_6 = (1/5) sum[ A + ec/ec_max + bc/bc_max ]

with A = |C|/c_max + |S|/s_max + deg/deg_max.  The centrality terms sit
inside the summation, so a vertex in m clusters counts its centrality m
times.  ``centrality_outside_sum=True`` switches to the alternative reading
where each centrality term is added once after the cluster sum (vertices in
no cluster still score 0).  Vertices outside every cluster have an empty
sum, hence score 0: well-clustered users score high and isolates of the
cluster structure float to the top of the suspicion ranking.

Degenerate maxima (for example bc_max = 0 on a complete graph) make the
affected normalized term 0 rather than dividing by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .centrality import CentralityTable
from .clustering import ClusteringResult
from .graph import AttributedGraph
from .ingest import read_table, write_table

__all__ = [
    "OutlierScoreTable",
    "compute_scores",
    "rank_users",
    "read_scores_csv",
    "write_ranking_csv",
    "write_scores_csv",
]

N_VARIANTS = 6
_SCORES_HEADER = ["user_id", *(f"score_{k}" for k in range(1, N_VARIANTS + 1)), "memberships"]


@dataclass
class OutlierScoreTable:
    user_ids: tuple[str, ...]
    scores: np.ndarray  # shape (n, 6)
    memberships: np.ndarray  # shape (n,), clusters containing each user

    def __post_init__(self) -> None:
        n = len(self.user_ids)
        if self.scores.shape != (n, N_VARIANTS):
            raise ValueError(f"scores must have shape ({n}, {N_VARIANTS})")
        if self.memberships.shape != (n,):
            raise ValueError(f"memberships must have shape ({n},)")

    def score(self, variant: int) -> np.ndarray:
        if not 1 <= variant <= N_VARIANTS:
            raise ValueError(f"variant must be in 1..{N_VARIANTS}, got {variant}")
        return self.scores[:, variant - 1]

    def ranks(self, variant: int) -> np.ndarray:
        """1-based rank per user for a variant; rank 1 = most suspicious."""
        order = _ranked_indices(self, variant)
        out = np.empty(len(self.user_ids), dtype=np.int64)
        for pos, i in enumerate(order, start=1):
            out[i] = pos
        return out


def _normalized(values: np.ndarray, maximum) -> np.ndarray:
    if maximum > 0:
        return values.astype(np.float64) / maximum
    return np.zeros(len(values))


def compute_scores(
    result: ClusteringResult,
    centralities: CentralityTable,
    graph: AttributedGraph,
    *,
    centrality_outside_sum: bool = False,
) -> OutlierScoreTable:
    n = graph.n_vertices
    for arr in (centralities.degree, centralities.eigenvector, centralities.betweenness):
        if len(arr) != n:
            raise ValueError(
                f"centrality table covers {len(arr)} vertices but the graph has {n}"
            )
    for c in result.clusters:
        if c.members and not (0 <= c.members[0] and c.members[-1] < n):
            raise ValueError(f"cluster members {c.members} out of range for {n} vertices")

    c_max, s_max = result.c_max, result.s_max
    cluster_sum = np.zeros(n)
    memberships = np.zeros(n, dtype=np.int64)
    for c in result.clusters:
        term = 0.0
        if c_max > 0:
            term += len(c.members) / c_max
        if s_max > 0:
            term += len(c.subspace) / s_max
        idx = list(c.members)
        cluster_sum[idx] += term
        memberships[idx] += 1

    ndeg = _normalized(centralities.degree, centralities.deg_max)
    nec = _normalized(centralities.eigenvector, centralities.ec_max)
    nbc = _normalized(centralities.betweenness, centralities.bc_max)

    # the centrality term appears once per containing cluster when inside
    # the sum, once overall when outside (and not at all for unclustered
    # vertices, keeping score = 0 exactly for them)
    count = (memberships > 0).astype(np.float64) if centrality_outside_sum else memberships

    scores = np.column_stack(
        [
            (cluster_sum + count * ndeg) / 3.0,
            (cluster_sum + count * nec) / 3.0,
            (cluster_sum + count * nbc) / 3.0,
            (cluster_sum + count * ndeg + count * nec) / 4.0,
            (cluster_sum + count * ndeg + count * nbc) / 4.0,
            (cluster_sum + count * ndeg + count * nec + count * nbc) / 5.0,
        ]
    )
    return OutlierScoreTable(tuple(graph.user_ids), scores, memberships)


def _ranked_indices(table: OutlierScoreTable, variant: int) -> list[int]:
    col = table.score(variant)
    return sorted(
        range(len(table.user_ids)),
        key=lambda i: (col[i], int(table.memberships[i]), table.user_ids[i]),
    )


def rank_users(table: OutlierScoreTable, variant: int) -> list[str]:
    """Users ascending by score; ties fall to fewer cluster memberships,
    then lexicographic user id."""
    return [table.user_ids[i] for i in _ranked_indices(table, variant)]


def write_scores_csv(path: str | Path, table: OutlierScoreTable) -> None:
    write_table(path, _SCORES_HEADER,
                ([user, *scores, count] for user, scores, count in
                 zip(table.user_ids, table.scores.tolist(), table.memberships.tolist())))


def read_scores_csv(path: str | Path) -> OutlierScoreTable:
    _, rows = read_table(path, _SCORES_HEADER,
                         lambda row: (row[0], [float(x) for x in row[1:-1]], int(row[-1])))
    users, scores, counts = zip(*rows) if rows else ((), (), ())
    return OutlierScoreTable(users, np.array(scores, np.float64).reshape(len(users), N_VARIANTS),
                             np.array(counts, np.int64))


def write_ranking_csv(path: str | Path, table: OutlierScoreTable, variant: int) -> None:
    col = table.score(variant).tolist()
    write_table(path, ("rank", "user_id", "score"),
                ([pos, table.user_ids[i], col[i]]
                 for pos, i in enumerate(_ranked_indices(table, variant), start=1)))
