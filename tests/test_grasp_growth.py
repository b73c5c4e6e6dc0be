"""Exact-equivalence oracle for GRASP growth.

``reference_grow`` is the straightforward growth step that recomputes every
candidate's subspace width over all columns and its minimum member degree
over all members.  ``clustering._grow`` keeps incremental state and stops
early on a quality bound; for the same random stream it must return the
same vertex set, round by round.
"""

import itertools
import math

import numpy as np
import pytest

from insiderank.clustering import (
    ClusterParams,
    _grasp_round,
    _grow,
    _growth_bound,
    _GraspContext,
    _local_search,
    grasp_cluster,
    quality,
    required_degree,
)
from insiderank.synth import SynthSpec, generate_attributed_graph
from test_clustering import make_graph, planted_clique_graph, random_instance


def reference_grow(ctx, rng):
    """Randomized greedy construction; returns the best valid vertex set
    seen along the growth path, or None if no grown set was valid.

    Every step re-derives each candidate's subspace width over all columns
    and its minimum member degree over all members."""
    p = ctx.params
    attrs, adj = ctx.attrs, ctx.adj_matrix

    seed_idx = int(rng.choice(len(ctx.seed_edges), p=ctx.seed_probs))
    u, v = ctx.seed_edges[seed_idx]

    members: list[int] = [u, v]
    in_members = np.zeros(ctx.n, dtype=bool)
    in_members[u] = in_members[v] = True
    cur_min = np.minimum(attrs[u], attrs[v])
    cur_max = np.maximum(attrs[u], attrs[v])
    deg_in = adj[u].astype(np.int64) + adj[v]
    discarded = np.zeros(ctx.n, dtype=bool)
    candidates = set(ctx.graph.adjacency[u] | ctx.graph.adjacency[v]) - {u, v}

    best_members: set[int] | None = None
    best_quality = -math.inf

    def snapshot_if_valid() -> None:
        nonlocal best_members, best_quality
        size = len(members)
        if size < p.n_min:
            return
        min_deg = int(deg_in[members].min())
        if min_deg < required_degree(size, p.gamma_min):
            return
        s_size = int(((cur_max - cur_min) <= p.w).sum())
        if s_size < p.s_min:
            return
        q = quality(size, s_size, min_deg / (size - 1), p)
        if q > best_quality:
            best_quality = q
            best_members = set(members)

    snapshot_if_valid()
    while candidates:
        cand = np.fromiter(sorted(candidates), dtype=np.int64)
        rows = attrs[cand]
        new_min = np.minimum(cur_min, rows)
        new_max = np.maximum(cur_max, rows)
        s_sizes = ((new_max - new_min) <= p.w).sum(axis=1)
        feasible = s_sizes >= p.s_min
        if not feasible.any():
            break
        dropped = cand[~feasible]
        discarded[dropped] = True
        candidates.difference_update(int(x) for x in dropped)
        cand = cand[feasible]
        s_sizes = s_sizes[feasible]

        size = len(members)
        member_degs = deg_in[members]
        min_member_deg = (member_degs[:, None] + adj[np.ix_(members, cand)]).min(axis=0)
        min_deg = np.minimum(min_member_deg, deg_in[cand])
        gammas = min_deg / size  # new size minus one equals current size
        quals = ((size + 1) ** p.a_exp) * (s_sizes.astype(np.float64) ** p.b_exp) * (gammas ** p.c_exp)

        best = quals.max()
        worst = quals.min()
        threshold = best - p.rcl_alpha * (best - worst)
        rcl = cand[quals >= threshold]
        chosen = int(rcl[rng.integers(len(rcl))])

        members.append(chosen)
        in_members[chosen] = True
        cur_min = np.minimum(cur_min, attrs[chosen])
        cur_max = np.maximum(cur_max, attrs[chosen])
        neigh = np.fromiter(sorted(ctx.graph.adjacency[chosen]), dtype=np.int64)
        deg_in[neigh] += 1
        candidates.discard(chosen)
        for x in neigh:
            xi = int(x)
            if not in_members[xi] and not discarded[xi]:
                candidates.add(xi)
        snapshot_if_valid()

    return best_members



def test_growth_bound_is_the_best_quality_over_later_sizes():
    """The bound equals a brute-force maximum over every later valid size."""
    checked = 0
    for a, b, c in itertools.product(EXPONENTS, repeat=3):
        for gamma_min, n_min in itertools.product((0.3, 0.5, 0.7, 1.0), (2, 6)):
            params = ClusterParams(n_min=n_min, gamma_min=gamma_min, a_exp=a, b_exp=b, c_exp=c)
            for size, reach, n_open in itertools.product((2, 3, 7), (0, 1, 2, 5, 12), (0, 1, 4, 30)):
                qs = [quality(k, 4, min(reach, k - 1) / (k - 1), params)
                      for k in range(max(size + 1, n_min), size + n_open + 1)
                      if required_degree(k, gamma_min) <= reach]
                bound = _growth_bound(size, 4, reach, n_open, params)
                if not qs:
                    assert bound == -math.inf
                    continue
                assert bound == pytest.approx(max(qs), rel=1e-12)
                checked += 1
    assert checked > 1000


def assert_same_growth(graph, params, rounds):
    """Both growth paths on each round's own (rng_seed, round) stream."""
    ctx = _GraspContext(graph, params)
    if not ctx.seed_edges:
        return 0
    valid = 0
    for i in range(rounds):
        got, steps = _grow(ctx, np.random.default_rng((params.rng_seed, i)))
        want = reference_grow(ctx, np.random.default_rng((params.rng_seed, i)))
        assert got == want, (params, i)
        assert 0 <= steps <= graph.n_vertices - 2
        valid += want is not None
    return valid


EXPONENTS = (0.0, 1.0, 2.5)


@pytest.mark.parametrize("gamma_min", (0.3, 0.5, 1.0))
@pytest.mark.parametrize("rcl_alpha", (0.0, 1.0))
def test_growth_matches_reference_on_planted_cliques(gamma_min, rcl_alpha):
    graph, _ = planted_clique_graph()
    valid = 0
    for a, b, c in itertools.product(EXPONENTS, repeat=3):
        params = ClusterParams(n_min=3, s_min=4, w=0.05, gamma_min=gamma_min, rcl_alpha=rcl_alpha,
                               a_exp=a, b_exp=b, c_exp=c, rng_seed=3)
        valid += assert_same_growth(graph, params, rounds=6)
    assert valid > 0


def test_growth_matches_reference_on_random_instances():
    rng = np.random.default_rng(2024)
    valid = 0
    for _ in range(40):
        graph = random_instance(rng)
        params = ClusterParams(
            n_min=int(rng.integers(2, 5)),
            s_min=int(rng.integers(1, 4)),
            gamma_min=float(rng.choice([0.3, 0.5, 1.0])),
            w=float(rng.choice([0.2, 0.35, 0.6])),
            a_exp=float(rng.choice(EXPONENTS)),
            b_exp=float(rng.choice(EXPONENTS)),
            c_exp=float(rng.choice(EXPONENTS)),
            rcl_alpha=float(rng.choice([0.0, 0.3, 1.0])),
            rng_seed=int(rng.integers(0, 1000)),
        )
        valid += assert_same_growth(graph, params, rounds=8)
    assert valid > 0


def columns_graph(rng, n=60, w=0.1):
    """Dense groups of 9 coherent in 4 free columns, over 5 constant
    columns, 4 columns of span within w and sparse background edges."""
    d_const, d_narrow, d_free = 5, 4, 12
    attrs = np.concatenate([
        np.tile(rng.random(d_const), (n, 1)),
        rng.random(d_narrow) * (1 - w) + rng.random((n, d_narrow)) * w * rng.random(d_narrow),
        rng.random((n, d_free)),
    ], axis=1)
    edges = set()
    for start in range(0, n - 8, 9):
        group = range(start, start + 9)
        cols = rng.choice(d_free, 4, replace=False) + d_const + d_narrow
        attrs[np.ix_(list(group), cols)] = rng.random(4) * (1 - w) + rng.random((9, 4)) * w
        edges.update(e for e in itertools.combinations(group, 2) if rng.random() < 0.8)
    edges.update(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.06)
    return make_graph(n, sorted(edges), attrs)


def test_growth_matches_reference_with_constant_and_narrow_columns():
    rng = np.random.default_rng(77)
    graph = columns_graph(rng)
    spans = np.ptp(graph.attributes, axis=0)
    assert (spans == 0).sum() == 5 and ((spans > 0) & (spans <= 0.1)).sum() == 4
    valid = 0
    for a, b, c in [(1.0, 1.0, 1.0), (2.5, 0.0, 1.0), (0.0, 2.5, 2.5), (1.0, 1.0, 0.0)]:
        for gamma_min, rcl_alpha, s_min in [(0.3, 0.0, 9), (0.5, 1.0, 11), (1.0, 0.3, 12), (0.5, 0.3, 2)]:
            params = ClusterParams(n_min=3, s_min=s_min, w=0.1, gamma_min=gamma_min,
                                   rcl_alpha=rcl_alpha, a_exp=a, b_exp=b, c_exp=c, rng_seed=11)
            valid += assert_same_growth(graph, params, rounds=5)
    assert valid > 0


def test_growth_matches_reference_on_synthetic_graph():
    spec = SynthSpec(n_users=120, k_clusters=8, size_range=(5, 9), subspace_range=(4, 6),
                     p_in=0.9, p_out=0.05, n_attributes=20, width=0.05, n_outliers=4, rng_seed=5)
    graph, _ = generate_attributed_graph(spec)
    for params in (ClusterParams(n_min=3, s_min=2, w=0.1, rng_seed=0),
                   ClusterParams(n_min=4, s_min=3, w=0.3, gamma_min=0.3, rcl_alpha=0.0, rng_seed=1)):
        assert assert_same_growth(graph, params, rounds=12) > 0


def test_growth_from_isolated_seed_edges():
    # two isolated edges and a triangle: an isolated seed pair has no
    # candidates, and the pair alone is below n_min
    attrs = np.array([[0.1, 0.2], [0.12, 0.21], [0.5, 0.5], [0.52, 0.49],
                      [0.9, 0.1], [0.91, 0.12], [0.9, 0.11]])
    graph = make_graph(7, [(0, 1), (2, 3), (4, 5), (5, 6), (4, 6)], attrs)
    for n_min in (2, 3):
        for gamma_min in (0.3, 1.0):
            params = ClusterParams(n_min=n_min, s_min=1, w=0.05, gamma_min=gamma_min, rng_seed=4)
            assert assert_same_growth(graph, params, rounds=20) > 0
    ctx = _GraspContext(graph, ClusterParams(n_min=3, s_min=1, w=0.05))
    grown = [_grow(ctx, np.random.default_rng((0, i))) for i in range(20)]
    assert (None, 0) in grown and ({4, 5, 6}, 1) in grown


def test_grasp_round_counts_growth_steps_and_moves():
    graph, groups = planted_clique_graph()
    ctx = _GraspContext(graph, ClusterParams(n_min=3, s_min=4, w=0.05))
    searched = {}
    for i in range(10):
        cluster, steps, moves = _grasp_round(ctx, i, searched)
        assert cluster is not None and cluster.members in groups
        assert 1 <= steps <= graph.n_vertices - 2 and moves >= 0


def test_local_search_is_searched_once_per_grown_set():
    # every round searched afresh gives the clusters and move count that
    # grasp_cluster reports; rounds that regrow a set reuse its search
    graph = random_instance(np.random.default_rng(3))
    params = ClusterParams(n_min=3, s_min=1, w=0.35, gamma_min=0.5, grasp_iterations=60)
    ctx = _GraspContext(graph, params)
    clusters, moves, grown_sets = set(), 0, []
    for i in range(params.grasp_iterations):
        grown, _ = _grow(ctx, np.random.default_rng((params.rng_seed, i)))
        if grown is not None:
            cluster, climbed = _local_search(ctx, grown)
            clusters.add(cluster.members)
            moves += climbed
            grown_sets.append(frozenset(grown))
    result = grasp_cluster(graph, params)
    assert result.stats["local_search_moves"] == moves
    assert result.stats["unique_clusters"] == len(clusters)
    hits = len(grown_sets) - len(set(grown_sets))
    assert result.stats["local_search_cache_hits"] == hits > 0
