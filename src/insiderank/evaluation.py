"""ROC/AUC evaluation against ground-truth malicious users.

The malicious users are the positive class and a LOW outlier score predicts
positive, so the curve sweeps thresholds t over the distinct score values
with "predicted positive" meaning score <= t.  The stored AUC is the
trapezoidal integral of the curve; it is computed from integer
true/false-positive counts with a single float division at the end, so
degenerate cases (perfect separation, all ties) come out exactly 1.0 and
0.5.  An independent rank-statistic computation (probability that a random
malicious user scores strictly below a random benign one, half credit for
ties) cross-checks every call and a disagreement beyond 1e-9 raises.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clustering import ClusterParams
from .ingest import write_table
from .ranking import N_VARIANTS, OutlierScoreTable

__all__ = [
    "GroundTruth",
    "RocCurve",
    "load_ground_truth",
    "roc_auc",
    "score_distribution",
    "write_auc_summary_csv",
    "write_distribution_csv",
    "write_ground_truth",
    "write_roc_csv",
]


@dataclass(frozen=True)
class GroundTruth:
    users: frozenset[str]

    def __len__(self) -> int:
        return len(self.users)

    def __contains__(self, user: str) -> bool:
        return user in self.users

    def missing_from(self, known: Iterable[str]) -> set[str]:
        """Labeled users that do not appear among the scored users."""
        return set(self.users) - set(known)


def load_ground_truth(path: str | Path) -> GroundTruth:
    """One user id per line; blank lines and duplicates are tolerated."""
    with open(path, encoding="utf-8") as fh:
        users = {line.strip() for line in fh if line.strip()}
    return GroundTruth(frozenset(users))


def write_ground_truth(path: str | Path, truth: GroundTruth) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for user in sorted(truth.users):
            fh.write(user + "\n")


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]  # (fpr, tpr) from (0,0) to (1,1)
    auc: float


def roc_auc(scores: Mapping[str, float], truth: GroundTruth) -> RocCurve:
    """ROC curve and AUC for low-score-is-malicious ranking.

    Labeled users absent from ``scores`` are ignored here; callers that
    care report them via :meth:`GroundTruth.missing_from`.
    """
    users = sorted(scores)
    y = np.array([u in truth.users for u in users], dtype=bool)
    s = np.array([float(scores[u]) for u in users])
    n_pos = int(y.sum())
    n_neg = len(users) - n_pos
    if n_pos == 0:
        raise ValueError("ground truth matches no scored user; AUC undefined")
    if n_neg == 0:
        raise ValueError("every scored user is labeled malicious; AUC undefined")

    order = np.argsort(s, kind="stable")
    ss, yy = s[order], y[order]
    points = [(0.0, 0.0)]
    numerator = 0  # trapezoid area times 2 * n_pos * n_neg, exact in ints
    tp = fp = 0
    i = 0
    while i < len(ss):
        j = i
        pos_here = neg_here = 0
        while j < len(ss) and ss[j] == ss[i]:
            if yy[j]:
                pos_here += 1
            else:
                neg_here += 1
            j += 1
        numerator += neg_here * (2 * tp + pos_here)
        tp += pos_here
        fp += neg_here
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc_sweep = numerator / (2 * n_pos * n_neg)

    # independent rank-statistic route over explicit pairs
    pos, neg = s[y], s[~y]
    strictly_below = int((pos[:, None] < neg[None, :]).sum())
    tied = int((pos[:, None] == neg[None, :]).sum())
    auc_rank = (2 * strictly_below + tied) / (2 * n_pos * n_neg)
    if abs(auc_sweep - auc_rank) > 1e-9:
        raise RuntimeError(
            f"threshold-sweep AUC {auc_sweep!r} disagrees with rank-statistic "
            f"AUC {auc_rank!r}"
        )
    return RocCurve(points=tuple(points), auc=auc_sweep)


def score_distribution(table: OutlierScoreTable, variant: int) -> list[tuple[int, float]]:
    """Scores of one variant sorted descending, paired with 1-based rank."""
    ordered = sorted((float(x) for x in table.score(variant)), reverse=True)
    return [(pos, value) for pos, value in enumerate(ordered, start=1)]


def write_roc_csv(path: str | Path, curve: RocCurve) -> None:
    write_table(path, ("fpr", "tpr"), curve.points)


def write_distribution_csv(path: str | Path, series: Sequence[tuple[int, float]]) -> None:
    write_table(path, ("rank", "score"), series)


def write_auc_summary_csv(
    path: str | Path,
    rows: Sequence[tuple[str, ClusterParams, Sequence[float]]],
) -> None:
    """Rows of (case label, cluster parameters, AUC per score variant).

    Each row gives its case, n_min and s_min, then the AUCs; every other
    cluster parameter whose value differs between rows, such as a swept
    ``w``, follows in a column of its own.
    """
    varied = [f.name for f in fields(ClusterParams) if f.name not in ("n_min", "s_min")
              and len({getattr(params, f.name) for _, params, _ in rows}) > 1]
    for case, _, aucs in rows:
        if len(aucs) != N_VARIANTS:
            raise ValueError(f"case {case}: expected {N_VARIANTS} AUC values, got {len(aucs)}")
    scores = [f"score_{k}" for k in range(1, N_VARIANTS + 1)]
    write_table(path, ["case", "n_min", "s_min", *scores, *varied],
                ([case, params.n_min, params.s_min, *aucs, *(getattr(params, k) for k in varied)]
                 for case, params, aucs in rows))
