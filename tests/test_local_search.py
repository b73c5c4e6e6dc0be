"""Exact-equivalence oracle for the GRASP local search.

``reference_local_search`` is the hill climb as it stood before adds and
swaps shared one scoring kernel with growth: separate add, remove and swap
scans with their own vectorized pre-filter.  ``clustering._local_search``
must return the same cluster after the same number of moves, round by
round, starting from the set ``_grow`` returns.
"""

import itertools

import numpy as np

from insiderank.clustering import (
    ClusterParams,
    TwofoldCluster,
    _evaluate,
    _GraspContext,
    _grow,
    _local_search,
    required_degree,
)
from insiderank.synth import SynthSpec, generate_attributed_graph
from test_clustering import planted_clique_graph, random_instance


def reference_local_search(ctx: _GraspContext, members: set[int]) -> tuple[TwofoldCluster, int]:
    """First-improvement hill climb with add, remove and swap moves.

    Moves are scanned in a fixed order (ascending vertex index; swaps by
    removed-then-added index) and taken only when the resulting set is a
    valid cluster of strictly higher quality, so the climb is deterministic
    and terminates.  Candidate moves are pre-filtered with vectorized
    quality bounds; full validation runs only on improving candidates.
    Returns the final cluster and the number of moves taken.
    """
    p = ctx.params
    graph, var, adj = ctx.graph, ctx.var_attrs, ctx.adj_matrix
    current = _evaluate(graph, set(members), p)
    assert current is not None

    def batch_improvers(
        base: np.ndarray, cand: np.ndarray, deg_base: np.ndarray, cur_q: float
    ) -> np.ndarray:
        """Candidates x where base+{x} passes size/degree/width bounds and
        beats cur_q; connectivity is left to the caller."""
        k = base.size + 1  # size after adding x
        # only variable columns inside base's subspace can stay inside it
        rows_b = var[base]
        b_min = rows_b.min(axis=0)
        b_max = rows_b.max(axis=0)
        live = np.flatnonzero(b_max - b_min <= p.w)
        rows_c = var[cand[:, None], live]
        widths = np.maximum(b_max[live], rows_c) - np.minimum(b_min[live], rows_c)
        s_sizes = ctx.n_const + (widths <= p.w).sum(axis=1)
        # a candidate lifts the minimum member degree only if it is adjacent
        # to every member at that minimum
        mdeg = deg_base[base]
        d_min = mdeg.min()
        min_member = d_min + adj[base[mdeg == d_min][:, None], cand].all(axis=0)
        min_deg = np.minimum(min_member, deg_base[cand])
        gammas = min_deg / (k - 1)
        quals = (k ** p.a_exp) * (s_sizes.astype(np.float64) ** p.b_exp) * (gammas ** p.c_exp)
        ok = (
            (s_sizes >= p.s_min)
            & (min_deg >= required_degree(k, p.gamma_min))
            & (quals > cur_q)
        )
        if k < p.n_min:
            ok &= False
        return cand[ok]

    moves = -1  # every pass but the last takes one move
    improved = True
    while improved:
        moves += 1
        improved = False
        mem = np.fromiter(current.members, dtype=np.int64)
        in_cur = np.zeros(ctx.n, dtype=bool)
        in_cur[mem] = True
        deg_in = adj[mem].sum(axis=0)
        cur_q = current.quality

        # Adds: current is connected and candidates are its neighbors, so
        # the grown set stays connected and the batch filter is exact.
        cand = np.flatnonzero(adj[mem].any(axis=0) & ~in_cur)
        if cand.size:
            for x in batch_improvers(mem, cand, deg_in, cur_q):
                c = _evaluate(graph, set(current.members) | {int(x)}, p)
                if c is not None and c.quality > cur_q:
                    current = c
                    improved = True
                    break
        if improved:
            continue

        for y in current.members:
            rest = set(current.members) - {y}
            if len(rest) < 2:
                continue
            c = _evaluate(graph, rest, p)
            if c is not None and c.quality > cur_q:
                current = c
                improved = True
                break
        if improved:
            continue

        for y in current.members:
            base = mem[mem != y]
            deg_base = deg_in - adj[y]
            nb = adj[base].any(axis=0)
            nb[mem] = False
            cand = np.flatnonzero(nb)
            if not cand.size:
                continue
            for x in batch_improvers(base, cand, deg_base, cur_q):
                c = _evaluate(graph, set(int(b) for b in base) | {int(x)}, p)
                if c is not None and c.quality > cur_q:
                    current = c
                    improved = True
                    break
            if improved:
                break
    return current, moves


def assert_same_climbs(graph, params, rounds):
    """Both climbs from each round's grown set; returns (climbs, moves)."""
    ctx = _GraspContext(graph, params)
    if not ctx.seed_edges:
        return 0, 0
    climbs = moves = 0
    for i in range(rounds):
        grown, _ = _grow(ctx, np.random.default_rng((params.rng_seed, i)))
        if grown is None:
            continue
        got = _local_search(ctx, grown)
        want = reference_local_search(ctx, grown)
        assert got == want, (params, i)
        climbs += 1
        moves += want[1]
    return climbs, moves


def test_local_search_matches_reference_on_planted_cliques():
    graph, _ = planted_clique_graph()
    climbs = 0
    for a, c in itertools.product((0.0, 1.0, 2.5), repeat=2):
        for gamma_min in (0.3, 1.0):
            params = ClusterParams(n_min=2, s_min=2, w=0.3, gamma_min=gamma_min,
                                   a_exp=a, c_exp=c, rng_seed=5)
            climbs += assert_same_climbs(graph, params, rounds=8)[0]
    assert climbs > 0


def test_local_search_matches_reference_on_random_instances():
    variants = (ClusterParams(n_min=3, s_min=2, w=0.35),
                ClusterParams(n_min=2, s_min=2, w=0.35, gamma_min=0.3, a_exp=2, c_exp=0))
    rng = np.random.default_rng(909)
    climbs = moves = 0
    for _ in range(40):
        graph = random_instance(rng)
        for params in variants:
            got = assert_same_climbs(graph, params, rounds=10)
            climbs, moves = climbs + got[0], moves + got[1]
    assert climbs > 100 and moves > 0


def test_local_search_matches_reference_on_synthetic_graph():
    spec = SynthSpec(n_users=150, k_clusters=10, size_range=(5, 10), subspace_range=(3, 6),
                     p_in=0.8, p_out=0.05, n_attributes=20, width=0.05, n_outliers=5, rng_seed=8)
    graph, _ = generate_attributed_graph(spec)
    climbs = moves = 0
    for params in (ClusterParams(n_min=3, s_min=2, w=0.1, rng_seed=2),
                   ClusterParams(n_min=2, s_min=3, w=0.2, gamma_min=0.3, a_exp=2, c_exp=0,
                                 rng_seed=3)):
        got = assert_same_climbs(graph, params, rounds=15)
        climbs, moves = climbs + got[0], moves + got[1]
    assert climbs > 0 and moves > 0
