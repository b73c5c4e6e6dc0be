"""Twofold clusters: dense vertex groups that also agree on attributes.

A cluster is a pair (C, S): a set of vertices C and a set of attribute
columns S.  C must induce a connected quasi-clique (every member adjacent to
at least ``ceil(gamma_min * (|C|-1))`` other members) and every attribute in
S must vary by at most ``w`` across C (values are assumed min-max
normalized).  S is always the maximal such subspace for C.  Cluster quality
is ``|C|**a * |S|**b * gamma**c`` with ``gamma`` the minimum in-cluster
degree ratio ``deg_C(v) / (|C|-1)``.

Two search paths produce the same result type:

* :func:`enumerate_clusters_exact` tries every vertex subset and is only
  allowed on small graphs (the oracle bound);
* :func:`grasp_cluster` runs randomized greedy rounds (seed edge biased
  toward attribute-similar endpoints, growth through a restricted candidate
  list on quality) followed by a single-vertex add/remove/swap hill climb.

Both funnel their candidates through :func:`prune_redundant`, which admits
clusters in quality order and drops any candidate that overlaps an admitted
cluster by at least ``r_obj`` of its members and ``r_dim`` of its subspace.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import AttributedGraph

__all__ = [
    "ClusterParams",
    "ClusteringResult",
    "OracleBoundExceeded",
    "TwofoldCluster",
    "enumerate_clusters_exact",
    "grasp_cluster",
    "max_subspace",
    "prune_redundant",
    "quality",
    "quasi_clique_gamma",
    "read_clusters_jsonl",
    "write_clusters_jsonl",
]


class OracleBoundExceeded(ValueError):
    """Exact enumeration was asked for a graph beyond its size bound."""


@dataclass(frozen=True)
class ClusterParams:
    n_min: int = 3
    s_min: int = 2
    gamma_min: float = 0.5
    w: float = 0.1
    a_exp: float = 1.0
    b_exp: float = 1.0
    c_exp: float = 1.0
    r_obj: float = 0.1
    r_dim: float = 0.1
    rng_seed: int = 0
    grasp_iterations: int = 2000
    rcl_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.n_min < 2:
            raise ValueError("n_min must be at least 2")
        if self.s_min < 1:
            raise ValueError("s_min must be at least 1")
        if not 0.0 < self.gamma_min <= 1.0:
            raise ValueError("gamma_min must be in (0, 1]")
        if self.w < 0.0:
            raise ValueError("w must be non-negative")
        if min(self.a_exp, self.b_exp, self.c_exp) < 0.0:
            raise ValueError("quality exponents must be non-negative")
        for name in ("r_obj", "r_dim", "rcl_alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.grasp_iterations < 0:
            raise ValueError("grasp_iterations must be non-negative")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class TwofoldCluster:
    members: tuple[int, ...]  # sorted vertex indices
    subspace: tuple[int, ...]  # sorted attribute indices, maximal for members
    gamma: float
    quality: float


@dataclass
class ClusteringResult:
    clusters: list[TwofoldCluster]
    params: ClusterParams
    # search counters (GRASP only); not part of the result's identity
    stats: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def c_max(self) -> int:
        return max((len(c.members) for c in self.clusters), default=0)

    @property
    def s_max(self) -> int:
        return max((len(c.subspace) for c in self.clusters), default=0)

    def memberships(self, n_vertices: int) -> list[list[int]]:
        """Cluster indices containing each vertex."""
        out: list[list[int]] = [[] for _ in range(n_vertices)]
        for ci, cluster in enumerate(self.clusters):
            for v in cluster.members:
                out[v].append(ci)
        return out


def required_degree(size: int, gamma_min: float) -> int:
    return math.ceil(gamma_min * (size - 1))


def quasi_clique_gamma(graph: AttributedGraph, members: Iterable[int]) -> float:
    members = set(members)
    if len(members) < 2:
        raise ValueError("gamma needs at least two vertices")
    denom = len(members) - 1
    return min(len(graph.adjacency[v] & members) for v in members) / denom


def max_subspace(members: Sequence[int], attrs: np.ndarray, w: float) -> tuple[int, ...]:
    """All attribute columns whose value range over ``members`` is at most ``w``."""
    rows = attrs[list(members)]
    widths = rows.max(axis=0) - rows.min(axis=0)
    return tuple(np.flatnonzero(widths <= w).tolist())


def quality(size, s_size, gamma, params: ClusterParams):
    """``size**a_exp * s_size**b_exp * gamma**c_exp``, element by element
    when ``s_size`` and ``gamma`` are numpy arrays."""
    return (size ** params.a_exp) * (s_size ** params.b_exp) * (gamma ** params.c_exp)


def _connected(members: set[int], graph: AttributedGraph) -> bool:
    start = next(iter(members))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.adjacency[v] & members:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) == len(members)


def _evaluate(graph: AttributedGraph, members: set[int], params: ClusterParams) -> TwofoldCluster | None:
    """Full constraint check; returns the cluster or None if any constraint fails."""
    size = len(members)
    if size < params.n_min:
        return None
    min_deg = min(len(graph.adjacency[v] & members) for v in members)
    if min_deg < required_degree(size, params.gamma_min):
        return None
    if not _connected(members, graph):
        return None
    subspace = max_subspace(sorted(members), graph.attributes, params.w)
    if len(subspace) < params.s_min:
        return None
    gamma = min_deg / (size - 1)
    return TwofoldCluster(
        members=tuple(sorted(members)),
        subspace=subspace,
        gamma=gamma,
        quality=quality(size, len(subspace), gamma, params),
    )


def prune_redundant(
    candidates: Sequence[TwofoldCluster],
    r_obj: float = 0.1,
    r_dim: float = 0.1,
) -> list[TwofoldCluster]:
    """Greedy admission in quality order; drop candidates that overlap an
    admitted cluster in at least r_obj of their members and r_dim of their
    subspace."""
    ordered = sorted(
        candidates,
        key=lambda c: (-c.quality, -len(c.members), -len(c.subspace), c.members),
    )
    admitted: list[TwofoldCluster] = []
    kept_members: list[set[int]] = []
    kept_dims: list[set[int]] = []
    for cand in ordered:
        members = set(cand.members)
        dims = set(cand.subspace)
        redundant = False
        for other_members, other_dims in zip(kept_members, kept_dims):
            obj_overlap = len(members & other_members) / len(members)
            dim_overlap = len(dims & other_dims) / len(dims)
            if obj_overlap >= r_obj and dim_overlap >= r_dim:
                redundant = True
                break
        if not redundant:
            admitted.append(cand)
            kept_members.append(members)
            kept_dims.append(dims)
    return admitted


def enumerate_clusters_exact(
    graph: AttributedGraph,
    params: ClusterParams,
    oracle_bound: int = 14,
) -> ClusteringResult:
    """Try every vertex subset of size >= n_min.  Exponential by design and
    therefore refused above ``oracle_bound`` vertices."""
    n = graph.n_vertices
    if n > oracle_bound:
        raise OracleBoundExceeded(
            f"exact enumeration over {n} vertices exceeds the bound of {oracle_bound}; "
            f"use grasp_cluster or raise oracle_bound explicitly"
        )
    candidates: list[TwofoldCluster] = []
    for size in range(params.n_min, n + 1):
        for combo in itertools.combinations(range(n), size):
            cluster = _evaluate(graph, set(combo), params)
            if cluster is not None:
                candidates.append(cluster)
    return ClusteringResult(prune_redundant(candidates, params.r_obj, params.r_dim), params)


class _GraspContext:
    """Shared read-only state for GRASP rounds."""

    def __init__(self, graph: AttributedGraph, params: ClusterParams) -> None:
        self.graph = graph
        self.params = params
        self.attrs = graph.attributes
        self.n = graph.n_vertices
        self.adj_matrix = graph.adjacency_matrix()
        self.degrees = graph.degrees()
        # A column whose global span is within w is within w on every vertex
        # set, so it belongs to every subspace: growth counts such columns
        # once and follows only the variable ones.
        if self.n:
            span = self.attrs.max(axis=0) - self.attrs.min(axis=0)
        else:
            span = np.zeros(self.attrs.shape[1])
        always = span <= params.w
        self.n_const = int(always.sum())
        self.var_attrs = np.ascontiguousarray(self.attrs[:, ~always])
        # Seed pool: edges whose endpoint pair is itself coherent in at least
        # s_min attributes.  Any cluster containing both endpoints has a
        # subspace no larger than the pair's, so other edges cannot seed a
        # valid cluster.  Weights bias sampling toward attribute-similar pairs.
        edges = graph.edges
        if edges:
            e = np.asarray(edges, dtype=np.int64)
            diffs = np.abs(self.attrs[e[:, 0]] - self.attrs[e[:, 1]])
            sizes = (diffs <= params.w).sum(axis=1).astype(np.float64)
        else:
            sizes = np.empty(0)
        keep = sizes >= params.s_min
        self.seed_edges = [e for e, k in zip(edges, keep) if k]
        if self.seed_edges:
            weights = sizes[keep]
            self.seed_probs = weights / weights.sum()
        else:
            self.seed_probs = np.empty(0)


# Relative slack on the growth bound, far above the rounding of the few
# products and powers behind it, so the early stop can only cut snapshots
# that lose by a real margin.
_BOUND_SLACK = 1e-9


def _growth_bound(size: int, s_size: int, reach: int, n_open: int, p: ClusterParams) -> float:
    """Upper bound on the quality of any snapshot after the current one.

    Later snapshots have ``k`` members with ``max(size + 1, n_min) <= k <=
    size + n_open``, at most ``s_size`` subspace columns, and a minimum
    in-degree of at most ``reach`` (no current member can gain more
    neighbours than that) and at most ``k - 1``; validity needs
    ``required_degree(k) <= reach``.  Quality is non-decreasing in k while
    ``k - 1 <= reach`` and ``k**a * (reach / (k-1))**c`` is quasi-convex
    beyond, so its maximum over the range sits at an end or at
    ``k = reach + 1``.
    """
    lo = max(size + 1, p.n_min)
    hi = size + n_open
    if required_degree(hi, p.gamma_min) > reach:
        # the degree test caps k within one of reach / gamma_min + 1
        hi = min(hi, int(reach / p.gamma_min) + 2)
        while hi >= lo and required_degree(hi, p.gamma_min) > reach:
            hi -= 1
    if hi < lo:
        return -math.inf
    ks = {lo, min(max(reach + 1, lo), hi), hi}
    return max(quality(k, s_size, min(reach, k - 1) / (k - 1), p) for k in ks)


def _score_additions(
    ctx: _GraspContext,
    members: np.ndarray,
    deg_in: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    live: np.ndarray,
    cand: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subspace size, minimum member degree and quality of ``members + {x}``
    for each candidate ``x`` in ``cand``.

    ``deg_in`` counts each vertex's neighbours among ``members``; ``live``
    holds the variable columns still inside the members' subspace and
    ``lo``/``hi`` their ranges over the members.  Only live columns can stay
    inside the subspace, and a candidate lifts the minimum member degree
    exactly when it is adjacent to every member at that minimum.
    """
    p = ctx.params
    k = members.size + 1
    rows = ctx.var_attrs[cand[:, None], live]
    widths = np.maximum(hi, rows) - np.minimum(lo, rows)
    s_sizes = ctx.n_const + (widths <= p.w).sum(axis=1)
    member_degs = deg_in[members]
    d_min = member_degs.min()
    at_min = members[member_degs == d_min]
    min_deg = np.minimum(d_min + ctx.adj_matrix[at_min[:, None], cand].all(axis=0), deg_in[cand])
    return s_sizes, min_deg, quality(k, s_sizes.astype(np.float64), min_deg / (k - 1), p)


def _grow(ctx: _GraspContext, rng: np.random.Generator) -> tuple[set[int] | None, int]:
    """Randomized greedy construction.

    Returns the best valid vertex set seen along the growth path (None if
    no grown set was valid) and the number of vertices added.  Each step
    scores every candidate with :func:`_score_additions` and draws from the
    restricted candidate list.  The bookkeeping is incremental: a column
    that leaves the subspace never returns, so only live variable columns
    are tracked; and growth stops once :func:`_growth_bound` says no later
    snapshot can beat the best one.
    """
    p = ctx.params
    adj, var = ctx.adj_matrix, ctx.var_attrs

    seed_idx = int(rng.choice(len(ctx.seed_edges), p=ctx.seed_probs))
    u, v = ctx.seed_edges[seed_idx]

    members = np.empty(ctx.n, dtype=np.int64)
    members[:2] = u, v
    size = 2
    deg_in = adj[u].astype(np.int64) + adj[v]
    # full degree minus discarded neighbours: the most any member can reach
    reach = ctx.degrees.copy()
    closed = np.zeros(ctx.n, dtype=bool)  # members and discarded vertices
    closed[[u, v]] = True
    n_closed = 2
    candidates = (adj[u] | adj[v]) & ~closed
    cur_min = np.minimum(var[u], var[v])
    cur_max = np.maximum(var[u], var[v])
    live = np.flatnonzero(cur_max - cur_min <= p.w)
    cur_min, cur_max = cur_min[live], cur_max[live]

    best_members: set[int] | None = None
    best_quality = -math.inf

    def snapshot_if_valid() -> None:
        nonlocal best_members, best_quality
        if size < p.n_min:
            return
        min_deg = int(deg_in[members[:size]].min())
        if min_deg < required_degree(size, p.gamma_min):
            return
        s_size = ctx.n_const + live.size
        if s_size < p.s_min:
            return
        q = quality(size, s_size, min_deg / (size - 1), p)
        if q > best_quality:
            best_quality = q
            best_members = set(members[:size].tolist())

    snapshot_if_valid()
    while True:
        if best_members is not None:
            bound = _growth_bound(size, ctx.n_const + live.size, int(reach[members[:size]].min()),
                                  ctx.n - n_closed, p)
            if bound * (1.0 + _BOUND_SLACK) < best_quality:
                break
        cand = np.flatnonzero(candidates)
        if not cand.size:
            break
        s_sizes, _, quals = _score_additions(ctx, members[:size], deg_in, cur_min, cur_max, live, cand)
        feasible = s_sizes >= p.s_min
        if not feasible.any():
            break
        if not feasible.all():
            dropped = cand[~feasible]
            candidates[dropped] = False
            closed[dropped] = True
            n_closed += dropped.size
            reach -= adj[dropped].sum(axis=0)
            cand, quals = cand[feasible], quals[feasible]

        best = quals.max()
        worst = quals.min()
        threshold = best - p.rcl_alpha * (best - worst)
        rcl = cand[quals >= threshold]
        chosen = int(rcl[rng.integers(len(rcl))])

        members[size] = chosen
        size += 1
        closed[chosen] = True
        n_closed += 1
        candidates[chosen] = False
        candidates |= adj[chosen] & ~closed
        deg_in += adj[chosen]
        row = var[chosen, live]
        cur_min = np.minimum(cur_min, row)
        cur_max = np.maximum(cur_max, row)
        inside = cur_max - cur_min <= p.w
        if not inside.all():
            live, cur_min, cur_max = live[inside], cur_min[inside], cur_max[inside]
        snapshot_if_valid()

    return best_members, size - 2


def _neighbours(ctx: _GraspContext, current: TwofoldCluster) -> Iterator[set[int]]:
    """Vertex sets one move from ``current``, in scan order: adds by
    ascending vertex, removes by ascending vertex, then swaps by removed and
    then added vertex.  An add is a swap that removes nothing.  Adds and
    swaps below the subspace or degree floor, or not of higher quality than
    ``current``, are skipped; connectivity is left to the caller."""
    p, adj = ctx.params, ctx.adj_matrix
    mem = np.fromiter(current.members, dtype=np.int64)
    deg_in = adj[mem].sum(axis=0)

    def additions(base: np.ndarray, deg_base: np.ndarray) -> Iterator[set[int]]:
        nb = adj[base].any(axis=0)
        nb[mem] = False
        cand = np.flatnonzero(nb)
        rows = ctx.var_attrs[base]
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        live = np.flatnonzero(hi - lo <= p.w)
        s_sizes, min_deg, quals = _score_additions(ctx, base, deg_base, lo[live], hi[live], live, cand)
        ok = ((s_sizes >= p.s_min) & (min_deg >= required_degree(base.size + 1, p.gamma_min))
              & (quals > current.quality))
        kept = set(base.tolist())
        return (kept | {x} for x in cand[ok].tolist())

    yield from additions(mem, deg_in)
    for y in current.members:
        yield set(current.members) - {y}
    for y in current.members:
        yield from additions(mem[mem != y], deg_in - adj[y])


def _local_search(ctx: _GraspContext, members: set[int]) -> tuple[TwofoldCluster, int]:
    """First-improvement hill climb with add, remove and swap moves.

    Each move takes the first set from :func:`_neighbours` that is a valid
    cluster of strictly higher quality, so the climb is deterministic and
    terminates.  Returns the final cluster and the number of moves taken.
    """
    graph, p = ctx.graph, ctx.params
    current = _evaluate(graph, set(members), p)
    assert current is not None
    moves = 0
    while True:
        clusters = (_evaluate(graph, s, p) for s in _neighbours(ctx, current))
        better = next((c for c in clusters if c is not None and c.quality > current.quality), None)
        if better is None:
            return current, moves
        current, moves = better, moves + 1


def _grasp_round(
    ctx: _GraspContext,
    iteration: int,
    searched: dict[frozenset[int], tuple[TwofoldCluster, int]],
) -> tuple[TwofoldCluster | None, int, int]:
    """One round's cluster (None if growth found no valid set), growth steps
    and local-search moves.  ``searched`` holds the local-search result of
    every grown set seen so far: the search draws no random numbers, so a set
    grown again climbs to the same cluster in the same moves."""
    rng = np.random.default_rng((ctx.params.rng_seed, iteration))
    grown, steps = _grow(ctx, rng)
    if grown is None:
        return None, steps, 0
    key = frozenset(grown)
    if key not in searched:
        searched[key] = _local_search(ctx, grown)
    cluster, moves = searched[key]
    return cluster, steps, moves


def grasp_cluster(graph: AttributedGraph, params: ClusterParams) -> ClusteringResult:
    """Randomized multi-start search for twofold clusters.

    Rounds run in index order in the calling thread, and each draws its
    random stream from ``(rng_seed, round_index)``, so the result depends
    only on the graph and the parameters.
    """
    ctx = _GraspContext(graph, params)
    if not ctx.seed_edges or params.grasp_iterations == 0:
        return ClusteringResult([], params)

    searched: dict[frozenset[int], tuple[TwofoldCluster, int]] = {}
    found = [_grasp_round(ctx, it, searched) for it in range(params.grasp_iterations)]

    seen: set[tuple[int, ...]] = set()
    ordered: list[TwofoldCluster] = []
    for cluster, _, _ in found:
        if cluster is None or cluster.members in seen:
            continue
        seen.add(cluster.members)
        ordered.append(cluster)
    admitted = prune_redundant(ordered, params.r_obj, params.r_dim)
    stats = {
        "rounds": len(found),
        "valid_rounds": sum(cluster is not None for cluster, _, _ in found),
        "unique_clusters": len(ordered),
        "admitted_clusters": len(admitted),
        "growth_steps": sum(steps for _, steps, _ in found),
        "local_search_moves": sum(moves for _, _, moves in found),
        # valid rounds whose grown set an earlier round had already searched
        "local_search_cache_hits": sum(c is not None for c, _, _ in found) - len(searched),
    }
    return ClusteringResult(admitted, params, stats)


def write_clusters_jsonl(path: str | Path, result: ClusteringResult, graph: AttributedGraph) -> None:
    """JSON lines: a parameter header, then one cluster per line."""
    header = {
        "params": asdict(result.params),
        "n_clusters": len(result.clusters),
        "c_max": result.c_max,
        "s_max": result.s_max,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for c in result.clusters:
            fh.write(
                json.dumps(
                    {
                        "members": [graph.user_ids[v] for v in c.members],
                        "subspace": [graph.attribute_names[j] for j in c.subspace],
                        "gamma": c.gamma,
                        "quality": c.quality,
                    }
                )
                + "\n"
            )


def read_clusters_jsonl(path: str | Path, graph: AttributedGraph) -> ClusteringResult:
    """Read a file written by :func:`write_clusters_jsonl` against ``graph``.

    Raises ValueError naming the file and line for malformed JSON, missing
    keys, bad parameters, and members or subspace names that ``graph`` does
    not have (a stale or edited file).
    """
    name_index = {name: j for j, name in enumerate(graph.attribute_names)}

    def lookup(table: dict[str, int], key, what: str) -> int:
        if not isinstance(key, str) or key not in table:
            raise ValueError(f"unknown {what} {key!r}")
        return table[key]

    with open(path) as fh:
        lines = [(no, line) for no, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: missing cluster header line")
    params = None
    clusters = []
    for no, line in lines:
        where = f"{path}:{no}"
        try:
            record = json.loads(line)
            if params is None:
                params = ClusterParams(**record["params"])
                continue
            clusters.append(
                TwofoldCluster(
                    members=tuple(sorted(lookup(graph.index, u, "member")
                                         for u in record["members"])),
                    subspace=tuple(sorted(lookup(name_index, s, "subspace attribute")
                                          for s in record["subspace"])),
                    gamma=float(record["gamma"]),
                    quality=float(record["quality"]),
                )
            )
        except KeyError as exc:
            raise ValueError(f"{where}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    return ClusteringResult(clusters, params)
