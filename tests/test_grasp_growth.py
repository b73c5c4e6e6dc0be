"""Exact-equivalence oracle for GRASP growth.

``reference_grow`` is the straightforward growth step that recomputes every
candidate's subspace width over all columns and its minimum member degree
over all members, one round at a time.  ``clustering._grow_rounds`` grows
many rounds in lock-step with incremental state and stops each early on a
quality bound; for the same random stream it must return the same vertex
set, round by round, whichever rounds share its batch.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from insiderank import clustering
from insiderank.clustering import (
    ClusterParams,
    _grasp_round,
    _grow_rounds,
    _growth_bound,
    _GraspContext,
    _local_search,
    grasp_cluster,
    quality,
    required_degree,
)
from insiderank.synth import SynthSpec, generate_attributed_graph
from graph_sets import neighbour_sets
from test_clustering import make_graph, planted_clique_graph, random_instance


def reference_grow(ctx, rng):
    """Randomized greedy construction; returns the best valid vertex set
    seen along the growth path, or None if no grown set was valid.

    Every step re-derives each candidate's subspace width over all columns
    and its minimum member degree over all members."""
    p = ctx.params
    attrs, adj = ctx.attrs, ctx.adj_matrix

    seed_idx = int(rng.choice(len(ctx.seed_edges), p=ctx.seed_probs))
    u, v = map(int, ctx.seed_edges[seed_idx])

    members: list[int] = [u, v]
    in_members = np.zeros(ctx.n, dtype=bool)
    in_members[u] = in_members[v] = True
    cur_min = np.minimum(attrs[u], attrs[v])
    cur_max = np.maximum(attrs[u], attrs[v])
    deg_in = adj[u].astype(np.int64) + adj[v]
    discarded = np.zeros(ctx.n, dtype=bool)
    adjacency = neighbour_sets(ctx.graph)
    candidates = set(adjacency[u] | adjacency[v]) - {u, v}

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
        neigh = np.fromiter(sorted(adjacency[chosen]), dtype=np.int64)
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


def reference_rounds(ctx, rounds):
    return [reference_grow(ctx, np.random.default_rng((ctx.params.rng_seed, i))) for i in rounds]


def assert_same_growth(graph, params, rounds):
    """One lock-step batch of rounds against the reference, each on its own
    (rng_seed, round) stream; returns the number of valid rounds."""
    ctx = _GraspContext(graph, params)
    if not len(ctx.seed_edges):
        return 0
    grown = _grow_rounds(ctx, range(rounds))
    want = reference_rounds(ctx, range(rounds))
    for i, ((got, steps), expected) in enumerate(zip(grown, want, strict=True)):
        assert got == expected, (params, i)
        assert 0 <= steps <= graph.n_vertices - 2
    return sum(w is not None for w in want)


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
    grown = _grow_rounds(ctx, range(20))
    assert (None, 0) in grown and ({4, 5, 6}, 1) in grown


def test_batch_mixes_rounds_that_stop_at_different_steps_and_find_nothing():
    # rounds seeded on an isolated edge find no valid set at step 0, while
    # the others stop at several later steps; all share one batch
    rng = np.random.default_rng(77)
    base = columns_graph(rng)
    n = base.n_vertices
    # ten isolated edges whose ends share every attribute value
    attrs = np.concatenate([base.attributes, np.repeat(base.attributes[:10], 2, axis=0)])
    isolated = [(n + 2 * i, n + 2 * i + 1) for i in range(10)]
    graph = make_graph(n + 20, [*base.edges, *isolated], attrs)
    params = ClusterParams(n_min=3, s_min=9, w=0.1, gamma_min=0.5, rcl_alpha=0.3, rng_seed=2)
    ctx = _GraspContext(graph, params)
    grown = _grow_rounds(ctx, range(60))
    assert [g for g, _ in grown] == reference_rounds(ctx, range(60))
    steps = {s for g, s in grown if g is not None}
    assert len(steps) > 3
    assert (None, 0) in grown


def test_one_round_batch_matches_reference():
    graph, _ = planted_clique_graph()
    params = ClusterParams(n_min=3, s_min=4, w=0.05, rng_seed=9)
    ctx = _GraspContext(graph, params)
    for i in range(5):
        [(got, _)] = _grow_rounds(ctx, [i])
        assert got == reference_rounds(ctx, [i])[0] is not None


@pytest.mark.parametrize("n, p_edge", [(2, 1.0), (5, 0.6), (500, 0.8)])
def test_seed_draws_match_generator_choice(n, p_edge):
    # the 500-vertex graph pools about 100k seed edges with uneven weights
    rng = np.random.default_rng(n)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p_edge]
    graph = make_graph(n, edges, rng.random((n, 12)))
    ctx = _GraspContext(graph, ClusterParams(n_min=2, s_min=1, w=0.3))
    assert len(ctx.seed_edges) > 0.9 * len(edges)
    assert n == 2 or len(np.unique(ctx.seed_probs)) > 1
    streams = [(ctx.params.rng_seed, i) for i in range(200)]
    drawn = [np.random.default_rng(s) for s in streams]
    chosen = [np.random.default_rng(s) for s in streams]
    assert ctx.draw_seeds(drawn).tolist() == [
        int(r.choice(len(ctx.seed_edges), p=ctx.seed_probs)) for r in chosen]
    # each stream is left where choice leaves it, for the growth picks after
    assert [r.random() for r in drawn] == [r.random() for r in chosen]


def test_round_result_does_not_depend_on_its_batch(monkeypatch):
    spec = SynthSpec(n_users=120, k_clusters=8, size_range=(5, 9), subspace_range=(4, 6),
                     p_in=0.9, p_out=0.05, n_attributes=20, width=0.05, n_outliers=4, rng_seed=5)
    graph, _ = generate_attributed_graph(spec)
    ctx = _GraspContext(graph, ClusterParams(n_min=3, s_min=2, w=0.1, rng_seed=4))
    together = _grow_rounds(ctx, range(24))
    assert len({s for _, s in together}) > 1
    for i in (0, 7, 23):
        assert _grow_rounds(ctx, [i]) == [together[i]]
    assert _grow_rounds(ctx, [23, 7, 0]) == [together[23], together[7], together[0]]
    # batches split the rounds without changing any of them
    monkeypatch.setattr(clustering, "_GROW_BATCH", 5)
    assert _grow_rounds(ctx, range(24)) == together


# Growth steps per round, as the growth that ran one round at a time took
# them: the early stop, and so the reach it reads, must not move.
PINNED_STEPS = {
    "columns-s11": [6, 0, 7, 7, 6, 1, 6, 7, 5, 5, 7, 5, 6, 7, 0, 7],
    "columns-s9": [8, 19, 8, 8, 8, 9, 8, 22, 15, 8, 8, 8, 8, 19, 22, 8],
    "synthetic": [1, 1, 5, 5, 1, 8, 4, 2, 3, 6, 1, 7, 7, 2, 0, 1, 7, 4, 1, 7, 5, 5, 2, 0],
}


def test_growth_steps_are_pinned():
    graph = columns_graph(np.random.default_rng(77))
    for name, params in (
        ("columns-s11", ClusterParams(n_min=3, s_min=11, w=0.1, gamma_min=0.5, rcl_alpha=0.3,
                                      rng_seed=11)),
        ("columns-s9", ClusterParams(n_min=3, s_min=9, w=0.1, gamma_min=0.3, rcl_alpha=0.0,
                                     rng_seed=11)),
    ):
        grown = _grow_rounds(_GraspContext(graph, params), range(16))
        assert [steps for _, steps in grown] == PINNED_STEPS[name]
    spec = SynthSpec(n_users=120, k_clusters=8, size_range=(5, 9), subspace_range=(4, 6),
                     p_in=0.9, p_out=0.05, n_attributes=20, width=0.05, n_outliers=4, rng_seed=5)
    graph, _ = generate_attributed_graph(spec)
    grown = _grow_rounds(_GraspContext(graph, ClusterParams(n_min=3, s_min=2, w=0.1, rng_seed=4)),
                         range(24))
    assert [steps for _, steps in grown] == PINNED_STEPS["synthetic"]


def test_grasp_round_counts_growth_steps_and_moves():
    graph, groups = planted_clique_graph()
    ctx = _GraspContext(graph, ClusterParams(n_min=3, s_min=4, w=0.05))
    searched, tally = {}, Counter()
    for grown, steps in _grow_rounds(ctx, range(10)):
        cluster, moves = _grasp_round(ctx, grown, searched, tally)
        assert cluster is not None and cluster.members in groups
        assert 1 <= steps <= graph.n_vertices - 2 and moves >= 0
    assert tally["local_search_scans"] == sum(moves + 1 for _, moves in searched.values())


def test_local_search_is_searched_once_per_grown_set():
    # every round searched afresh gives the clusters and move count that
    # grasp_cluster reports; rounds that regrow a set reuse its search, and
    # only first searches count toward the scan counters
    graph = random_instance(np.random.default_rng(3))
    params = ClusterParams(n_min=3, s_min=1, w=0.35, gamma_min=0.5, grasp_iterations=60)
    ctx = _GraspContext(graph, params)
    clusters, moves, grown_sets, tally = set(), 0, [], Counter()
    for grown, _ in _grow_rounds(ctx, range(params.grasp_iterations)):
        if grown is not None:
            first = frozenset(grown) not in grown_sets
            cluster, climbed = _local_search(ctx, grown, tally if first else Counter())
            clusters.add(cluster.members)
            moves += climbed
            grown_sets.append(frozenset(grown))
    result = grasp_cluster(graph, params)
    assert result.stats["local_search_moves"] == moves
    assert result.stats["unique_clusters"] == len(clusters)
    hits = len(grown_sets) - len(set(grown_sets))
    assert result.stats["local_search_cache_hits"] == hits > 0
    for name in ("local_search_scans", "swap_bases_skipped", "removes_prefiltered"):
        assert result.stats[name] == tally[name]
    assert tally["local_search_scans"] >= len(set(grown_sets))
    assert set(result.timings) == {"growth_s", "local_search_s"}
