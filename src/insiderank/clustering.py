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
  The rounds grow side by side, one row of array state per round, and each
  draws from its own random stream, so a round's result does not depend on
  the rounds grown with it; the climbs then run in round order.

Both funnel their candidates through :func:`prune_redundant`, which admits
clusters in quality order and drops any candidate that overlaps an admitted
cluster by at least ``r_obj`` of its members and ``r_dim`` of its subspace.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter
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
    # search counters and seconds (GRASP only); not part of the result's identity
    stats: dict[str, int] = field(default_factory=dict, compare=False)
    timings: dict[str, float] = field(default_factory=dict, compare=False)

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
    members = sorted(set(members))
    if len(members) < 2:
        raise ValueError("gamma needs at least two vertices")
    sub = graph.adjacency_matrix()[np.ix_(members, members)]
    return int(sub.sum(axis=1).min()) / (len(members) - 1)


def max_subspace(members: Sequence[int], attrs: np.ndarray, w: float) -> tuple[int, ...]:
    """All attribute columns whose value range over ``members`` is at most ``w``."""
    rows = attrs.take(members, axis=0)
    widths = rows.max(axis=0) - rows.min(axis=0)
    return tuple(np.flatnonzero(widths <= w).tolist())


def quality(size, s_size, gamma, params: ClusterParams):
    """``size**a_exp * s_size**b_exp * gamma**c_exp``, element by element
    when ``s_size`` and ``gamma`` are numpy arrays."""
    return (size ** params.a_exp) * (s_size ** params.b_exp) * (gamma ** params.c_exp)


def _connected(sub: np.ndarray) -> bool:
    """Whether the graph with boolean adjacency matrix ``sub`` is connected."""
    seen = np.zeros(len(sub), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = sub[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _evaluate(graph: AttributedGraph, members: set[int], params: ClusterParams) -> TwofoldCluster | None:
    """Full constraint check; returns the cluster or None if any constraint fails."""
    size = len(members)
    if size < params.n_min:
        return None
    ordered = np.array(sorted(members))
    sub = graph.adjacency_matrix().take(ordered, axis=0).take(ordered, axis=1)
    min_deg = min(sub.sum(axis=0).tolist())
    if min_deg < required_degree(size, params.gamma_min):
        return None
    # with every degree at least (size - 1) / 2, any two members meet
    if 2 * min_deg < size - 1 and not _connected(sub):
        return None
    subspace = max_subspace(ordered, graph.attributes, params.w)
    if len(subspace) < params.s_min:
        return None
    gamma = min_deg / (size - 1)
    return TwofoldCluster(
        members=tuple(ordered.tolist()),
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
        # neighbour lists: those of v are nbr[nbr_at[v]:nbr_at[v + 1]]
        self.nbr = np.nonzero(self.adj_matrix)[1]
        self.nbr_at = np.concatenate([[0], np.cumsum(self.degrees)])
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
        # each variable column's vertices in value order, and those values
        self.col_order = np.argsort(self.var_attrs, axis=0, kind="stable").T.copy()
        self.col_sorted = np.take_along_axis(self.var_attrs.T, self.col_order, axis=1)
        # Seed pool: edges whose endpoint pair is itself coherent in at least
        # s_min attributes.  Any cluster containing both endpoints has a
        # subspace no larger than the pair's, so other edges cannot seed a
        # valid cluster.  Weights bias sampling toward attribute-similar pairs.
        # A pair's subspace is the constant columns plus its coherent variable
        # ones, counted a chunk of edges at a time.
        edges = graph.edges
        sizes = np.empty(len(edges))
        step = _block_rows(self.var_attrs.shape[1])
        for lo in range(0, len(edges), step):
            e = edges[lo:lo + step]
            diffs = np.abs(self.var_attrs[e[:, 0]] - self.var_attrs[e[:, 1]])
            sizes[lo:lo + len(e)] = self.n_const + (diffs <= params.w).sum(axis=1)
        keep = sizes >= params.s_min
        self.seed_edges = edges[keep]  # (m, 2) vertex pairs
        weights = sizes[keep]
        self.seed_probs = weights / weights.sum() if weights.size else weights
        # Generator.choice(p=seed_probs) draws from these cumulative sums;
        # building them once saves re-checking and re-summing every round.
        self.seed_cdf = self.seed_probs.cumsum()
        if weights.size:
            self.seed_cdf /= self.seed_cdf[-1]

    def draw_seeds(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One seed edge position per stream, each the one that
        ``rng.choice(len(self.seed_edges), p=self.seed_probs)`` would draw,
        consuming the same single double from it."""
        return self.seed_cdf.searchsorted([rng.random() for rng in rngs], side="right")


# Elements of the (vertices x variable columns) temporaries held at once.
_BLOCK = 1 << 16


def _block_rows(n_cols: int) -> int:
    return max(1, _BLOCK // max(1, n_cols))


# Rounds grown together in one lock-step pass.  A round keeps about 15n
# bytes of state and a step's temporaries a few times that, so a batch
# peaks near 20 MB at n = 1000.
_GROW_BATCH = 256

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


def _fits(lo: np.ndarray, hi: np.ndarray, values: np.ndarray, w: float) -> np.ndarray:
    """Whether each value keeps its column's range ``[lo, hi]`` within ``w``."""
    return np.maximum(hi, values) - np.minimum(lo, values) <= w


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
    s_sizes = ctx.n_const + _fits(lo, hi, ctx.var_attrs[cand[:, None], live], p.w).sum(axis=1)
    member_degs = deg_in[members]
    d_min = member_degs.min()
    at_min = members[member_degs == d_min]
    min_deg = np.minimum(d_min + ctx.adj_matrix[at_min[:, None], cand].all(axis=0), deg_in[cand])
    return s_sizes, min_deg, quality(k, s_sizes.astype(np.float64), min_deg / (k - 1), p)


def _fit_band(ctx: _GraspContext, lo: np.ndarray, hi: np.ndarray, cols: np.ndarray):
    """For each column ``cols[i]``, whose range ``[lo[i], hi[i]]`` is within
    ``w``: the first and last position in its sorted values of the values
    that keep the range within ``w``.  They form one run, since a value
    below ``lo`` narrows the widened range as it grows and a value above
    ``hi`` widens it; both ends are found by bisection on the same test as
    :func:`_fits`."""
    w, values = ctx.params.w, ctx.col_sorted
    first, first_max = np.zeros(cols.size, dtype=np.intp), np.full(cols.size, ctx.n - 1)
    last_min, last = np.zeros(cols.size, dtype=np.intp), np.full(cols.size, ctx.n - 1)
    for _ in range(ctx.n.bit_length()):
        mid = (first + first_max) // 2
        ok = hi - np.minimum(lo, values[cols, mid]) <= w
        first, first_max = np.where(ok, first, mid + 1), np.where(ok, mid, first_max)
        mid = (last_min + last + 1) // 2
        ok = np.maximum(hi, values[cols, mid]) - lo <= w
        last_min, last = np.where(ok, mid, last_min), np.where(ok, last, mid - 1)
    return first, last_min


def _count_fits(ctx: _GraspContext, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray,
                xs: np.ndarray) -> np.ndarray:
    """How many columns vertex ``xs[i]`` keeps within ``w`` in the ranges of
    row ``rows[i]`` of ``lo``/``hi``, a block of vertices at a time."""
    out = np.empty(rows.size, dtype=np.int32)
    step = _block_rows(lo.shape[1])
    for i in range(0, rows.size, step):
        r, x = rows[i:i + step], xs[i:i + step]
        out[i:i + step] = _fits(lo[r], hi[r], ctx.var_attrs[x], ctx.params.w).sum(axis=1)
    return out


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``0 .. c - 1`` for each ``c`` in ``counts``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts, counts)


def _subtract_runs(counter: np.ndarray, rows: np.ndarray, src: np.ndarray, starts: np.ndarray,
                   widths: np.ndarray) -> None:
    """Take one off ``counter[r, v]`` for every ``v`` in ``src[s:s + width]``,
    for each run ``(r, s, width)``, a block of runs at a time."""
    total = np.cumsum(widths)
    cuts = np.searchsorted(total, np.arange(_BLOCK, total[-1] if total.size else 0, _BLOCK))
    for a, b in zip([0, *cuts], [*cuts, widths.size]):
        w = widths[a:b]
        flat = np.repeat(rows[a:b] * counter.shape[1], w) + src[np.repeat(starts[a:b], w) + _ragged_arange(w)]
        counter -= np.bincount(flat, minlength=counter.size).reshape(counter.shape)


def _close_wide(lo: np.ndarray, hi: np.ndarray, w: float) -> None:
    """Mark the columns whose range exceeds ``w`` as out of the subspace for
    good: a range of (-inf, inf) fits no value and never widens again."""
    wide = hi - lo > w
    lo[wide] = -np.inf
    hi[wide] = np.inf


def _grow_rounds(ctx: _GraspContext, rounds: Sequence[int]) -> list[tuple[set[int] | None, int]]:
    """Randomized greedy construction of each round in ``rounds``.

    Returns, per round, the best valid vertex set seen along its growth path
    (None if no grown set was valid) and the number of vertices added.  Round
    ``i`` draws from its own ``default_rng((rng_seed, i))`` stream, one seed
    edge and then one pick from the restricted candidate list per step, so
    its result does not depend on the rounds grown alongside it.  Rounds grow
    in lock-step batches of ``_GROW_BATCH`` (see :func:`_grow_batch`).
    """
    return [grown for start in range(0, len(rounds), _GROW_BATCH)
            for grown in _grow_batch(ctx, rounds[start:start + _GROW_BATCH])]


def _grow_batch(ctx: _GraspContext, rounds: Sequence[int]) -> list[tuple[set[int] | None, int]]:
    """Grow ``rounds`` side by side, one row of state per unfinished round.

    A row holds the round's members, each vertex's in-degree to them, its
    reach (full degree minus discarded neighbours), the closed (members and
    discarded) and candidate masks, the ranges of the variable columns still
    inside the subspace, and how many of those columns each candidate keeps
    within ``w``.  A column that leaves the subspace never returns and a new
    member only widens ranges, so a candidate can only lose columns, and
    only those whose range the new member widens: the vertices that drop
    out of such a column's run of fitting values (:func:`_fit_band`) lose
    it, and newly opened candidates are counted in full.  A candidate lifts
    the minimum member degree exactly when it is adjacent to every member at
    that minimum.  Each step scores all rows at once, over every vertex, and
    draws each round's pick from its own stream.  A round finishes when its
    candidates run out or all fall below ``s_min``, or once
    :func:`_growth_bound` says no later snapshot can beat its best one; its
    row then leaves the batch.
    """
    p, adj, var, n = ctx.params, ctx.adj_matrix, ctx.var_attrs, ctx.n
    rngs = [np.random.default_rng((p.rng_seed, i)) for i in rounds]
    seeds = ctx.seed_edges[ctx.draw_seeds(rngs)]
    u, v = seeds[:, 0], seeds[:, 1]
    rows = np.arange(len(rounds))
    members = np.zeros((len(rounds), n), dtype=bool)
    members[rows, u] = members[rows, v] = True
    closed = members.copy()
    deg_in = adj[u].astype(np.int32) + adj[v]
    reach = np.tile(ctx.degrees.astype(np.int32), (len(rounds), 1))
    cand = (adj[u] | adj[v]) & ~closed
    lo, hi = np.minimum(var[u], var[v]), np.maximum(var[u], var[v])
    _close_wide(lo, hi, p.w)
    count = np.zeros((len(rounds), n), dtype=np.int32)
    cr, cx = np.nonzero(cand)
    count[cr, cx] = _count_fits(ctx, lo, hi, cr, cx)
    band_first = np.zeros(lo.shape, dtype=np.intp)
    band_last = np.zeros(lo.shape, dtype=np.intp)
    lr, lj = np.nonzero(np.isfinite(lo))
    band_first[lr, lj], band_last[lr, lj] = _fit_band(ctx, lo[lr, lj], hi[lr, lj], lj)
    size = np.full(len(rounds), 2)
    n_closed = np.full(len(rounds), 2)

    slot = list(range(len(rounds)))  # each row's position in ``rounds``
    best_q = [-math.inf] * len(rounds)
    best_set: list[set[int] | None] = [None] * len(rounds)
    results: list[tuple[set[int] | None, int]] = [(None, 0)] * len(rounds)

    def s_sizes(which) -> np.ndarray:
        return ctx.n_const + (hi[which] - lo[which] <= p.w).sum(axis=1)

    def snapshot() -> np.ndarray:
        """Keep each round's members if they beat its best valid set; returns
        the rounds' minimum member degrees."""
        d_min = np.where(members, deg_in, n).min(axis=1)
        s_size = s_sizes(slice(None))
        valid = ((size >= p.n_min) & (s_size >= p.s_min)
                 & (d_min >= np.ceil(p.gamma_min * (size - 1))))
        for r in np.flatnonzero(valid).tolist():
            k = int(size[r])
            q = quality(k, int(s_size[r]), int(d_min[r]) / (k - 1), p)
            if q > best_q[slot[r]]:
                best_q[slot[r]] = q
                best_set[slot[r]] = set(np.flatnonzero(members[r]).tolist())
        return d_min

    d_min = snapshot()
    while slot:
        stop = np.zeros(len(slot), dtype=bool)
        bounded = [r for r, i in enumerate(slot) if best_set[i] is not None]
        if bounded:
            reach_min = np.where(members, reach, n).min(axis=1)[bounded].tolist()
            for r, s_size, reach_r in zip(bounded, s_sizes(bounded).tolist(), reach_min):
                bound = _growth_bound(int(size[r]), s_size, reach_r, n - int(n_closed[r]), p)
                stop[r] = bound * (1.0 + _BOUND_SLACK) < best_q[slot[r]]
        feasible = cand & (ctx.n_const + count >= p.s_min)
        stop |= ~feasible.any(axis=1)
        if stop.any():
            for r in np.flatnonzero(stop).tolist():
                results[slot[r]] = best_set[slot[r]], int(size[r]) - 2
            keep = ~stop
            slot = [i for i, kept in zip(slot, keep) if kept]
            if not slot:
                break
            (members, closed, cand, feasible, deg_in, d_min, reach, count, lo, hi, band_first,
             band_last, size, n_closed) = (
                a[keep] for a in (members, closed, cand, feasible, deg_in, d_min, reach, count,
                                  lo, hi, band_first, band_last, size, n_closed))
        dropped = cand & ~feasible
        if dropped.any():
            # candidates below s_min stay below it: discard them for good
            dr, dx = np.nonzero(dropped)
            cand = feasible
            closed |= dropped
            n_closed += np.bincount(dr, minlength=len(slot))
            _subtract_runs(reach, dr, ctx.nbr, ctx.nbr_at[dx], ctx.degrees[dx])

        # The quality of members + {x} for every vertex x, in quality()'s
        # operations: k**a_exp a Python float, the rest element by element.
        # Only candidates' counts are kept up to date, so only their scores
        # are read.
        k = size + 1
        ar, am = np.nonzero(members & (deg_in == d_min[:, None]))
        lifts = np.logical_and.reduceat(adj[am], np.flatnonzero(np.diff(ar, prepend=-1)), axis=0)
        min_deg = np.minimum(d_min[:, None] + lifts, deg_in)
        k_pow = np.array([kk ** p.a_exp for kk in k.tolist()])
        with np.errstate(invalid="ignore"):
            quals = (k_pow[:, None] * ((ctx.n_const + count).astype(np.float64) ** p.b_exp)
                     * ((min_deg / (k - 1)[:, None]) ** p.c_exp))

        # each round's restricted candidate list and the pick from it
        best = np.where(cand, quals, -np.inf).max(axis=1)
        worst = np.where(cand, quals, np.inf).min(axis=1)
        rcl = cand & (quals >= (best - p.rcl_alpha * (best - worst))[:, None])
        n_rcl = rcl.sum(axis=1)
        picks = [int(rngs[i].integers(int(c))) for i, c in zip(slot, n_rcl.tolist())]
        chosen = np.flatnonzero(rcl)[np.cumsum(n_rcl) - n_rcl + picks] % n

        rows = np.arange(len(slot))
        members[rows, chosen] = closed[rows, chosen] = True
        cand[rows, chosen] = False
        size += 1
        n_closed += 1
        neighbours = adj[chosen]
        opened = neighbours & ~closed & ~cand
        cand |= opened
        deg_in += neighbours
        new_lo, new_hi = np.minimum(lo, var[chosen]), np.maximum(hi, var[chosen])
        _close_wide(new_lo, new_hi, p.w)
        # A widened column's band of fitting values shrinks, or empties once
        # the range passes w: the vertices at its two ends lose that column.
        wr, wj = np.nonzero((new_lo != lo) | (new_hi != hi))
        if wr.size:
            first, last = band_first[wr, wj], band_last[wr, wj]
            new_first, new_last = last + 1, last.copy()
            live = np.flatnonzero(np.isfinite(new_lo[wr, wj]))
            new_first[live], new_last[live] = _fit_band(
                ctx, new_lo[wr[live], wj[live]], new_hi[wr[live], wj[live]], wj[live])
            _subtract_runs(count, np.tile(wr, 2), ctx.col_order.ravel(),
                           np.concatenate([first, new_last + 1]) + np.tile(wj * n, 2),
                           np.concatenate([new_first - first, last - new_last]))
            band_first[wr, wj], band_last[wr, wj] = new_first, new_last
        lo, hi = new_lo, new_hi
        nr, nx = np.nonzero(opened)
        count[nr, nx] = _count_fits(ctx, lo, hi, nr, nx)
        d_min = snapshot()
    return results


def _neighbours(ctx: _GraspContext, current: TwofoldCluster, tally: Counter) -> Iterator[set[int]]:
    """Vertex sets one move from ``current``, in scan order: adds by
    ascending vertex, removes by ascending vertex, then swaps by removed and
    then added vertex.  An add is a swap that removes nothing.  Moves below
    the size, subspace or degree floor, or not of higher quality than
    ``current``, are skipped; connectivity is left to the caller.

    Removing ``y`` leaves ``C - y``, whose minimum member degree and subspace
    size decide the remove exactly as :func:`_evaluate` would.  They also
    bound every swap that removes ``y``: adding one vertex to ``C - y`` can
    only shrink its subspace and raises each member's degree by at most
    one.  The swaps of a ``y`` whose bound is not above ``current`` are not
    scanned (``swap_bases_skipped``), nor are the removes the floors or
    quality reject (``removes_prefiltered``).
    """
    p, adj = ctx.params, ctx.adj_matrix
    mem = np.fromiter(current.members, dtype=np.int64)
    k = mem.size
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

    # per member y: the minimum member degree and subspace size of C - y
    rest_degs = deg_in[mem] - adj[np.ix_(mem, mem)]
    rest_degs[np.diag_indices(k)] = k
    rest_deg = rest_degs.min(axis=1).tolist()
    rows = ctx.var_attrs[mem]
    ends = np.sort(rows, axis=0)
    rest_hi = np.where(rows == ends[-1], ends[-2], ends[-1])
    rest_lo = np.where(rows == ends[0], ends[1], ends[0])
    rest_s = (ctx.n_const + (rest_hi - rest_lo <= p.w).sum(axis=1)).tolist()

    size = k - 1
    for y, deg, s in zip(current.members, rest_deg, rest_s):
        if (size < p.n_min or deg < required_degree(size, p.gamma_min) or s < p.s_min
                or quality(size, s, deg / (size - 1), p) <= current.quality):
            tally["removes_prefiltered"] += 1
            continue
        yield set(current.members) - {y}
    for y, deg, s in zip(current.members, rest_deg, rest_s):
        if quality(k, s, min(deg + 1, k - 1) / (k - 1), p) <= current.quality:
            tally["swap_bases_skipped"] += 1
            continue
        yield from additions(mem[mem != y], deg_in - adj[y])


def _local_search(
    ctx: _GraspContext, members: set[int], tally: Counter | None = None
) -> tuple[TwofoldCluster, int]:
    """First-improvement hill climb with add, remove and swap moves.

    Each move takes the first set from :func:`_neighbours` that is a valid
    cluster of strictly higher quality, so the climb is deterministic and
    terminates.  Returns the final cluster and the number of moves taken;
    ``tally`` counts the neighbourhood scans (``local_search_scans``, one
    per move and the last one that finds none) and the moves they skipped.
    """
    graph, p = ctx.graph, ctx.params
    tally = Counter() if tally is None else tally
    current = _evaluate(graph, set(members), p)
    assert current is not None
    moves = 0
    while True:
        tally["local_search_scans"] += 1
        clusters = (_evaluate(graph, s, p) for s in _neighbours(ctx, current, tally))
        better = next((c for c in clusters if c is not None and c.quality > current.quality), None)
        if better is None:
            return current, moves
        current, moves = better, moves + 1


def _grasp_round(
    ctx: _GraspContext,
    grown: set[int] | None,
    searched: dict[frozenset[int], tuple[TwofoldCluster, int]],
    tally: Counter,
) -> tuple[TwofoldCluster | None, int]:
    """One round's cluster from the set its growth returned (None if growth
    found no valid set) and its local-search moves.  ``searched`` holds the
    local-search result of every grown set seen so far: the search draws no
    random numbers, so a set grown again climbs to the same cluster in the
    same moves, and only a set's first search adds to ``tally``."""
    if grown is None:
        return None, 0
    key = frozenset(grown)
    if key not in searched:
        searched[key] = _local_search(ctx, grown, tally)
    return searched[key]


def grasp_cluster(graph: AttributedGraph, params: ClusterParams) -> ClusteringResult:
    """Randomized multi-start search for twofold clusters.

    Every round is grown first, in lock-step batches (:func:`_grow_rounds`),
    and each draws its random stream from ``(rng_seed, round_index)``; the
    grown sets are then climbed in round order in the calling thread.  The
    result depends only on the graph and the parameters.  ``timings`` holds
    the seconds spent growing (``growth_s``) and climbing
    (``local_search_s``).
    """
    ctx = _GraspContext(graph, params)
    if not len(ctx.seed_edges) or params.grasp_iterations == 0:
        return ClusteringResult([], params)

    start = time.perf_counter()
    grown = _grow_rounds(ctx, range(params.grasp_iterations))
    grown_at = time.perf_counter()
    searched: dict[frozenset[int], tuple[TwofoldCluster, int]] = {}
    tally = Counter(local_search_scans=0, swap_bases_skipped=0, removes_prefiltered=0)
    found = [_grasp_round(ctx, members, searched, tally) for members, _ in grown]
    searched_at = time.perf_counter()

    seen: set[tuple[int, ...]] = set()
    ordered: list[TwofoldCluster] = []
    for cluster, _ in found:
        if cluster is None or cluster.members in seen:
            continue
        seen.add(cluster.members)
        ordered.append(cluster)
    admitted = prune_redundant(ordered, params.r_obj, params.r_dim)
    stats = {
        "rounds": len(found),
        "valid_rounds": sum(cluster is not None for cluster, _ in found),
        "unique_clusters": len(ordered),
        "admitted_clusters": len(admitted),
        "growth_steps": sum(steps for _, steps in grown),
        "local_search_moves": sum(moves for _, moves in found),
        # valid rounds whose grown set an earlier round had already searched
        "local_search_cache_hits": sum(c is not None for c, _ in found) - len(searched),
        **tally,
    }
    timings = {"growth_s": grown_at - start, "local_search_s": searched_at - grown_at}
    return ClusteringResult(admitted, params, stats, timings)


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
