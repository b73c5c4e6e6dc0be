"""Exact-equivalence oracle for the GRASP local search.

``reference_local_search`` is the hill climb as it stood before adds and
swaps shared one scoring kernel with growth: separate add, remove and swap
scans with their own vectorized pre-filter, every remove evaluated in full
and no swap skipped on a bound.  ``clustering._local_search`` must return
the same cluster after the same number of moves, round by round, starting
from the set ``_grow_rounds`` returns; ``climb_path`` compares the climbs
move by move.
"""

import itertools
from collections import Counter

import numpy as np

from insiderank.clustering import (
    ClusterParams,
    TwofoldCluster,
    _evaluate,
    _GraspContext,
    _grow_rounds,
    _local_search,
    _neighbours,
    required_degree,
)
from insiderank.synth import SynthSpec, generate_attributed_graph
from test_clustering import make_graph, planted_clique_graph, random_instance


def reference_local_search(ctx: _GraspContext, members: set[int]) -> tuple[TwofoldCluster, int]:
    """First-improvement hill climb with add, remove and swap moves.

    Moves are scanned in a fixed order (ascending vertex index; swaps by
    removed-then-added index) and taken only when the resulting set is a
    valid cluster of strictly higher quality, so the climb is deterministic
    and terminates.  Returns the final cluster and the number of moves taken.
    """
    path = reference_path(ctx, members)
    return path[-1], len(path) - 1


def reference_path(ctx: _GraspContext, members: set[int]) -> list[TwofoldCluster]:
    """The clusters the reference climb passes through, start and end included."""
    path = [_evaluate(ctx.graph, set(members), ctx.params)]
    assert path[0] is not None
    while (better := reference_move(ctx, path[-1])) is not None:
        path.append(better)
    return path


def reference_move(ctx: _GraspContext, current: TwofoldCluster) -> TwofoldCluster | None:
    """The first improving move from ``current``, or None.  Candidate adds
    and swaps are pre-filtered with vectorized quality bounds; full
    validation runs only on improving candidates."""
    p = ctx.params
    graph, var, adj = ctx.graph, ctx.var_attrs, ctx.adj_matrix

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
                return c

    for y in current.members:
        rest = set(current.members) - {y}
        if len(rest) < 2:
            continue
        c = _evaluate(graph, rest, p)
        if c is not None and c.quality > cur_q:
            return c

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
                return c
    return None


def climb_path(ctx: _GraspContext, members: set[int], tally: Counter) -> list[TwofoldCluster]:
    """The clusters the library climb passes through: each move is the first
    valid, strictly better set that ``_neighbours`` yields."""
    path = [_evaluate(ctx.graph, set(members), ctx.params)]
    while True:
        current = path[-1]
        clusters = (_evaluate(ctx.graph, s, ctx.params) for s in _neighbours(ctx, current, tally))
        better = next((c for c in clusters if c is not None and c.quality > current.quality), None)
        if better is None:
            return path
        path.append(better)


def assert_same_climbs(graph, params, rounds, tally=None):
    """Both climbs from each round's grown set, move by move; returns
    (climbs, moves)."""
    ctx = _GraspContext(graph, params)
    if not len(ctx.seed_edges):
        return 0, 0
    tally = Counter() if tally is None else tally
    climbs = moves = 0
    for i, (grown, _) in enumerate(_grow_rounds(ctx, range(rounds))):
        if grown is None:
            continue
        want = reference_path(ctx, grown)
        assert climb_path(ctx, grown, Counter()) == want, (params, i)
        assert _local_search(ctx, grown, tally) == (want[-1], len(want) - 1), (params, i)
        climbs += 1
        moves += len(want) - 1
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


def assert_same_climbs_from(graph, params, starts):
    """Both climbs from each given start set, move by move; returns the tally."""
    ctx = _GraspContext(graph, params)
    tally = Counter()
    for start in starts:
        want = reference_path(ctx, set(start))
        assert climb_path(ctx, set(start), tally) == want, (params, start)
    return tally


def test_local_search_bound_with_a_degree_floor_short_of_connectivity():
    # two triangles joined through vertex 3: at gamma_min 0.3 the set
    # without 3 meets the degree floor and is of higher quality (3 differs
    # in two columns), but it is disconnected, so the remove must still be
    # left to the connectivity check
    attrs = np.full((7, 4), 0.5)
    attrs[3, :2] = 0.9
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]
    graph = make_graph(7, edges, attrs)
    params = ClusterParams(n_min=3, s_min=1, w=0.1, gamma_min=0.3)
    rest = set(range(7)) - {3}
    assert _evaluate(graph, rest, params) is None
    start = _evaluate(graph, set(range(7)), params)
    assert start is not None and start.quality < 6 * 4 * (2 / 5)
    # every other remove leaves a vertex below the degree floor
    assert assert_same_climbs_from(graph, params, [range(7)])["removes_prefiltered"] == 6
    climbs = 0
    rng = np.random.default_rng(31)
    for _ in range(30):
        climbs += assert_same_climbs(random_instance(rng), ClusterParams(
            n_min=3, s_min=1, w=0.35, gamma_min=0.3, rng_seed=4), rounds=6)[0]
    assert climbs > 50


def test_local_search_bound_when_quality_is_flat_in_subspace_or_density():
    spec = SynthSpec(n_users=80, k_clusters=6, size_range=(5, 8), subspace_range=(3, 6),
                     p_in=0.8, p_out=0.06, n_attributes=16, width=0.05, n_outliers=3, rng_seed=12)
    graph, _ = generate_attributed_graph(spec)
    for b, c in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (0.0, 2.5)):
        tally = Counter()
        params = ClusterParams(n_min=3, s_min=2, w=0.1, gamma_min=0.5, b_exp=b, c_exp=c, rng_seed=6)
        climbs, moves = assert_same_climbs(graph, params, rounds=12, tally=tally)
        assert climbs > 0
        assert tally["local_search_scans"] == climbs + moves


def test_local_search_when_every_remove_falls_below_a_floor():
    # at n_min equal to the cluster's size every remove is below the size
    # floor, and at s_min equal to its subspace size every add or swap that
    # narrows the subspace is below the subspace floor
    graph, groups = planted_clique_graph()
    ctx = _GraspContext(graph, ClusterParams(n_min=3, s_min=4, w=0.05))
    start = _evaluate(graph, set(groups[1]), ctx.params)
    assert len(start.subspace) == 4
    for n_min, s_min in ((5, 1), (2, 4), (5, 4)):
        params = ClusterParams(n_min=n_min, s_min=s_min, w=0.05, gamma_min=0.5)
        tally = assert_same_climbs_from(graph, params, [groups[1]])
        if n_min == 5:
            assert tally["removes_prefiltered"] >= 5
    rng = np.random.default_rng(5)
    for _ in range(20):
        graph = random_instance(rng)
        ctx = _GraspContext(graph, ClusterParams(n_min=2, s_min=1, w=0.35))
        for grown, _ in _grow_rounds(ctx, range(6)):
            if grown is None:
                continue
            found = _local_search(ctx, grown)[0]
            floor = ClusterParams(n_min=len(found.members), s_min=len(found.subspace), w=0.35)
            tally = assert_same_climbs_from(graph, floor, [found.members])
            assert tally["removes_prefiltered"] == len(found.members)


def test_local_search_from_a_full_clique():
    # gamma is 1, so the swap bound's density term is 1 for every removed
    # member and only the subspace can rule a swap out
    graph, groups = planted_clique_graph()
    params = ClusterParams(n_min=3, s_min=2, w=0.05, gamma_min=0.5)
    for group in groups:
        start = _evaluate(graph, set(group), params)
        assert start.gamma == 1.0
    tally = assert_same_climbs_from(graph, params, groups + [group[:3] for group in groups])
    assert tally["swap_bases_skipped"] > 0
    rng = np.random.default_rng(8)
    attrs = rng.random((9, 6))
    attrs[:6, :3] = 0.4 + 0.02 * rng.random((6, 3))
    clique = make_graph(9, [*itertools.combinations(range(6), 2), (5, 6), (6, 7), (7, 8), (2, 8)], attrs)
    for a, b, c in itertools.product((0.0, 1.0, 2.5), repeat=3):
        params = ClusterParams(n_min=2, s_min=1, w=0.05, gamma_min=0.3, a_exp=a, b_exp=b, c_exp=c)
        assert_same_climbs_from(clique, params, [range(6), range(4), (4, 5, 6)])
