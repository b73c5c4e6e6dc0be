"""Degree, eigenvector and betweenness centrality for the user graph.

All three are classical definitions on an undirected simple graph:

* degree: incident edge count;
* eigenvector: dominant eigenvector of the adjacency matrix, max-normalized
  so the largest entry is exactly 1; isolated vertices are set to 0;
* betweenness: for every unordered vertex pair, the fraction of shortest
  paths running through a vertex (endpoints excluded), un-normalized.

Betweenness is Brandes' dependency accumulation in two arithmetic domains.
The float path (the default) runs it level-synchronously over fixed blocks
of sources with dense float64 matrix products.  Forward, level 1 is the
sources' adjacency columns and one product per further level counts
shortest paths, until every vertex has a level or a level finds none.
Backward, one product per level down to level 2 accumulates dependencies.
Blocks are reduced in ascending source order, so the result is
deterministic; multithreaded BLAS may round differently from
single-threaded BLAS in the last bits.  The exact path
(``exact=True``) runs one BFS plus reverse sweep per source in rational
arithmetic and matches an independent path-enumeration oracle bit for bit
after the final float conversion.  It also serves graphs whose path counts
leave float64's exact integer range.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .graph import AttributedGraph
from .ingest import write_table

__all__ = [
    "CentralityTable",
    "NonConvergenceError",
    "betweenness_centrality",
    "compute_centralities",
    "degree_centrality",
    "eigenvector_centrality",
    "write_centrality_csv",
]


class NonConvergenceError(RuntimeError):
    """Power iteration failed to reach the tolerance within max_iter."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


@dataclass
class CentralityTable:
    degree: np.ndarray
    eigenvector: np.ndarray
    betweenness: np.ndarray

    @property
    def deg_max(self) -> int:
        return int(self.degree.max()) if self.degree.size else 0

    @property
    def ec_max(self) -> float:
        return float(self.eigenvector.max()) if self.eigenvector.size else 0.0

    @property
    def bc_max(self) -> float:
        return float(self.betweenness.max()) if self.betweenness.size else 0.0


def degree_centrality(graph: AttributedGraph) -> np.ndarray:
    return graph.degrees()


def eigenvector_centrality(
    graph: AttributedGraph,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> np.ndarray:
    """Power iteration from a uniform positive start, max-normalized.

    The iteration runs on A + I, which has the same dominant eigenvector as
    the adjacency A but cannot two-cycle on bipartite graphs.  Convergence
    requires both a successive-iterate change below tol and the residual
    ``max|A x - lambda x| <= tol * lambda`` for the Rayleigh-quotient lambda
    of A.  On disconnected graphs the iteration runs on the whole adjacency,
    so the most dominant component wins and the rest decay toward zero;
    isolated vertices are set to exactly 0.
    """
    n = graph.n_vertices
    if n == 0:
        raise ValueError("eigenvector centrality needs a non-empty graph")
    if graph.n_edges == 0:
        return np.zeros(n)

    A = graph.float_adjacency_matrix()
    x = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        y = A @ x + x
        y /= y.max()
        diff = float(np.abs(y - x).max())
        x = y
        if diff < tol:
            Ax = A @ x
            lam = float(x @ Ax) / float(x @ x)
            residual = float(np.abs(Ax - lam * x).max())
            if residual <= tol * lam:
                x = x.copy()
                x[graph.degrees() == 0] = 0.0
                return x
    raise NonConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(residual {residual:.3e})",
        residual=float(residual),
    )


# Sources per block of the float path.  Each of the half-dozen (n x block)
# float64 work arrays then takes n KiB, well below the n x n adjacency.
_BLOCK = 128

# float64 holds every integer below 2**53 exactly; a path count that reaches
# it may have been rounded.
_EXACT_SIGMA_LIMIT = 2.0**53


def _source_dependencies(neighbours: list[list[int]], s: int) -> list[Fraction]:
    """BFS from s plus the reverse dependency sweep, in exact rationals;
    ``neighbours[v]`` lists the neighbours of v in ascending order."""
    n = len(neighbours)
    sigma = [0] * n
    sigma[s] = 1
    dist = [-1] * n
    dist[s] = 0
    preds: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    queue = deque([s])
    while queue:
        v = queue.popleft()
        order.append(v)
        dv = dist[v]
        for w in neighbours[v]:
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)

    delta = [Fraction(0)] * n
    for w in reversed(order):
        coeff = (1 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] = delta[v] + sigma[v] * coeff
    return delta


def _exact_betweenness(graph: AttributedGraph) -> np.ndarray:
    n = graph.n_vertices
    neighbours = [np.flatnonzero(row).tolist() for row in graph.adjacency_matrix()]
    totals = [Fraction(0)] * n
    for s in range(n):
        delta = _source_dependencies(neighbours, s)
        for v in range(n):
            if v != s:
                totals[v] += delta[v]
    # each unordered pair was counted from both endpoints
    return np.array([float(t / 2) for t in totals], dtype=np.float64)


def _block_dependencies(adjacency: np.ndarray, sources: np.ndarray) -> np.ndarray | None:
    """Dependencies of every vertex (rows) on each source (columns).

    Returns None when some path count reaches ``_EXACT_SIGMA_LIMIT``.
    """
    n, b = adjacency.shape[0], len(sources)
    columns = np.arange(b)
    level = np.full((n, b), -1, dtype=np.int32)
    level[sources, columns] = 0
    sigma = np.zeros((n, b))
    sigma[sources, columns] = 1.0
    # each source's neighbours, one path each, are its level 1
    reach = adjacency[:, sources]
    depth = 0
    while True:
        new = (reach > 0) & (level < 0)
        if not new.any():
            break
        depth += 1
        level[new] = depth
        frontier = np.where(new, reach, 0.0)
        sigma += frontier
        if (level >= 0).all():
            break
        reach = adjacency @ frontier
    if sigma.max() >= _EXACT_SIGMA_LIMIT:
        return None

    # level-1 vertices pass dependency only to the source, whose own entry
    # does not count, so the sweep ends at level 2 and sources stay at 0
    delta = np.zeros((n, b))
    for d in range(depth, 1, -1):
        coeff = np.divide(1.0 + delta, sigma, out=np.zeros((n, b)), where=level == d)
        delta += np.where(level == d - 1, sigma * (adjacency @ coeff), 0.0)
    return delta


def betweenness_centrality(graph: AttributedGraph, *, exact: bool = False) -> np.ndarray:
    """Shortest-path betweenness over unordered pairs, endpoints excluded.

    With ``exact=True`` the dependency sums are computed in rational
    arithmetic and converted to float once at the end, which makes the
    result independent of evaluation order and identical to a brute-force
    path enumeration.  The float path is the production default; a graph
    with a path count of 2**53 or more falls back to the exact path.
    """
    if exact:
        return _exact_betweenness(graph)
    n = graph.n_vertices
    adjacency = graph.float_adjacency_matrix()
    totals = np.zeros(n)
    for start in range(0, n, _BLOCK):
        delta = _block_dependencies(adjacency, np.arange(start, min(start + _BLOCK, n)))
        if delta is None:
            return _exact_betweenness(graph)
        totals += delta.sum(axis=1)
    # each unordered pair was counted from both endpoints
    return totals / 2


def compute_centralities(
    graph: AttributedGraph,
    *,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> CentralityTable:
    return CentralityTable(
        degree=degree_centrality(graph),
        eigenvector=eigenvector_centrality(graph, tol=tol, max_iter=max_iter),
        betweenness=betweenness_centrality(graph),
    )


def write_centrality_csv(path: str | Path, graph: AttributedGraph, table: CentralityTable) -> None:
    write_table(path, ("user_id", "degree", "eigenvector", "betweenness"),
                zip(graph.user_ids, table.degree.tolist(), table.eigenvector.tolist(),
                    table.betweenness.tolist()))
