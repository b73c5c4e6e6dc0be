import itertools
import json
import math

import numpy as np
import pytest

from insiderank.clustering import (
    ClusterParams,
    ClusteringResult,
    OracleBoundExceeded,
    TwofoldCluster,
    enumerate_clusters_exact,
    grasp_cluster,
    max_subspace,
    prune_redundant,
    quality,
    quasi_clique_gamma,
    read_clusters_jsonl,
    write_clusters_jsonl,
)
from insiderank.graph import AttributedGraph

from graph_sets import neighbour_sets


def make_graph(n, edges, attrs):
    ids = [f"U{i:02d}" for i in range(n)]
    attrs = np.asarray(attrs, dtype=float)
    names = [f"a{j}" for j in range(attrs.shape[1])]
    return AttributedGraph(ids, edges, attrs, names)


def connected_oracle(adjacency, members):
    members = set(members)
    stack = [next(iter(members))]
    seen = set(stack)
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u in members and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == members


def check_cluster(graph, cluster, params):
    """Independent re-check of every cluster constraint."""
    members = set(cluster.members)
    assert len(members) >= params.n_min
    adjacency = neighbour_sets(graph)
    degs = [sum(1 for u in adjacency[v] if u in members) for v in members]
    assert min(degs) >= math.ceil(params.gamma_min * (len(members) - 1))
    assert connected_oracle(adjacency, members)
    assert len(cluster.subspace) >= params.s_min
    rows = graph.attributes[sorted(members)]
    for j in range(graph.attributes.shape[1]):
        width = rows[:, j].max() - rows[:, j].min()
        if j in cluster.subspace:
            assert width <= params.w
        else:
            assert width > params.w  # subspace must be maximal
    assert cluster.gamma == min(degs) / (len(members) - 1)
    expected_q = (
        len(members) ** params.a_exp
        * len(cluster.subspace) ** params.b_exp
        * cluster.gamma ** params.c_exp
    )
    assert cluster.quality == pytest.approx(expected_q, abs=1e-12)


def assert_no_redundant_pair(clusters, params):
    for a, b in itertools.combinations(clusters, 2):
        for first, second in ((a, b), (b, a)):
            obj = len(set(second.members) & set(first.members)) / len(second.members)
            dim = len(set(second.subspace) & set(first.subspace)) / len(second.subspace)
            assert not (obj >= params.r_obj and dim >= params.r_dim)


def all_valid_subsets(graph, params):
    """Test-side brute-force oracle over every vertex subset."""
    found = []
    n = graph.n_vertices
    adjacency = neighbour_sets(graph)
    for size in range(params.n_min, n + 1):
        for combo in itertools.combinations(range(n), size):
            members = set(combo)
            gamma = quasi_clique_gamma(graph, members)
            if min(
                sum(1 for u in adjacency[v] if u in members) for v in members
            ) < math.ceil(params.gamma_min * (size - 1)):
                continue
            if not connected_oracle(adjacency, members):
                continue
            sub = max_subspace(sorted(members), graph.attributes, params.w)
            if len(sub) < params.s_min:
                continue
            found.append((combo, sub, gamma))
    return found


def test_gamma_examples():
    tri = make_graph(3, [(0, 1), (1, 2), (0, 2)], np.zeros((3, 2)))
    assert quasi_clique_gamma(tri, {0, 1, 2}) == 1.0

    path = make_graph(3, [(0, 1), (1, 2)], np.zeros((3, 2)))
    assert quasi_clique_gamma(path, {0, 1, 2}) == 0.5

    cycle = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], np.zeros((4, 2)))
    assert quasi_clique_gamma(cycle, {0, 1, 2, 3}) == 2 / 3

    with pytest.raises(ValueError):
        quasi_clique_gamma(tri, {0})


def test_max_subspace_examples():
    rng = np.random.default_rng(3)
    attrs = rng.random((3, 125))
    assert max_subspace([1], attrs, 0.0) == tuple(range(125))

    pair = np.array([[0.2, 0.2], [0.7, 0.25]])
    assert max_subspace([0, 1], pair, 0.1) == (1,)

    hand = np.array(
        [
            [0.10, 0.90, 0.50, 0.00],
            [0.15, 0.20, 0.52, 0.95],
            [0.12, 0.55, 0.48, 0.50],
        ]
    )
    # ranges: 0.05, 0.70, 0.04, 0.95
    assert max_subspace([0, 1, 2], hand, 0.1) == (0, 2)

    # boundary: range exactly w stays inside
    edge = np.array([[0.3, 0.0], [0.4, 0.5]])
    assert max_subspace([0, 1], edge, 0.4 - 0.3) == (0,)


def test_quality_examples():
    base = ClusterParams()
    assert quality(4, 3, 0.75, base) == 9.0
    assert quality(4, np.array([3.0, 1.0]), np.array([0.75, 0.5]), base).tolist() == [9.0, 2.0]

    flat = ClusterParams(a_exp=0.0, b_exp=0.0, c_exp=0.0)
    assert quality(7, 2, 0.6, flat) == 1.0

    skew = ClusterParams(a_exp=2.0, b_exp=1.0, c_exp=1.0)
    assert quality(3, 5, 1.0, skew) == 45.0


def test_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(n_min=1)
    with pytest.raises(ValueError):
        ClusterParams(s_min=0)
    with pytest.raises(ValueError):
        ClusterParams(gamma_min=0.0)
    with pytest.raises(ValueError):
        ClusterParams(gamma_min=1.5)
    with pytest.raises(ValueError):
        ClusterParams(w=-0.1)
    with pytest.raises(ValueError):
        ClusterParams(r_obj=1.2)
    with pytest.raises(ValueError):
        ClusterParams(rcl_alpha=-0.5)
    with pytest.raises(ValueError):
        ClusterParams(a_exp=-1.0)
    with pytest.raises(ValueError):
        ClusterParams(grasp_iterations=-1)


def two_triangle_graph():
    # triangle {0,1,2} coherent in attrs 0,1,2; triangle {3,4,5} in attrs 0,1
    attrs = np.array(
        [
            [0.10, 0.10, 0.10, 0.00],
            [0.11, 0.12, 0.10, 0.50],
            [0.12, 0.11, 0.11, 1.00],
            [0.90, 0.90, 0.10, 0.00],
            [0.91, 0.92, 0.55, 0.50],
            [0.92, 0.91, 1.00, 1.00],
        ]
    )
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return make_graph(6, edges, attrs)


def test_two_disjoint_triangles():
    graph = two_triangle_graph()
    params = ClusterParams(n_min=3, s_min=1, w=0.05)
    result = enumerate_clusters_exact(graph, params)
    got = sorted(c.members for c in result.clusters)
    assert got == [(0, 1, 2), (3, 4, 5)]
    for c in result.clusters:
        check_cluster(graph, c, params)
    assert result.c_max == 3
    assert {c.members: len(c.subspace) for c in result.clusters} == {
        (0, 1, 2): 3,
        (3, 4, 5): 2,
    }

    approx = grasp_cluster(graph, ClusterParams(n_min=3, s_min=1, w=0.05, grasp_iterations=40))
    assert sorted(c.members for c in approx.clusters) == [(0, 1, 2), (3, 4, 5)]


def test_empty_edge_set():
    graph = make_graph(5, [], np.zeros((5, 3)))
    result = enumerate_clusters_exact(graph, ClusterParams(n_min=2, s_min=1))
    assert result.clusters == []
    assert result.c_max == 0 and result.s_max == 0


def test_k4_candidates_and_pruning():
    attrs = np.full((4, 3), 0.5)
    edges = list(itertools.combinations(range(4), 2))
    graph = make_graph(4, edges, attrs)
    params = ClusterParams(n_min=3, s_min=1)

    candidates = all_valid_subsets(graph, params)
    assert len(candidates) == 5  # four triangles plus the full K4

    result = enumerate_clusters_exact(graph, params)
    assert len(result.clusters) == 1
    top = result.clusters[0]
    assert top.members == (0, 1, 2, 3)
    assert top.subspace == (0, 1, 2)
    assert top.gamma == 1.0
    assert top.quality == 12.0


def test_oracle_bound_refusal():
    n = 15
    edges = [(i, i + 1) for i in range(n - 1)]
    graph = make_graph(n, edges, np.zeros((n, 2)))
    with pytest.raises(OracleBoundExceeded):
        enumerate_clusters_exact(graph, ClusterParams())
    # explicit override admits the same instance
    result = enumerate_clusters_exact(graph, ClusterParams(n_min=2, s_min=1), oracle_bound=15)
    assert result.clusters


def mk_cluster(members, subspace, gamma, params):
    return TwofoldCluster(
        members=tuple(sorted(members)),
        subspace=tuple(sorted(subspace)),
        gamma=gamma,
        quality=quality(len(members), len(subspace), gamma, params),
    )


def test_prune_redundant_rules():
    params = ClusterParams()
    a = mk_cluster({0, 1, 2, 3}, {0, 1}, 1.0, params)
    dup = mk_cluster({0, 1, 2, 3}, {0, 1}, 1.0, params)
    assert prune_redundant([a, dup], params.r_obj, params.r_dim) == [a]

    b = mk_cluster({4, 5, 6}, {0, 1}, 1.0, params)
    assert prune_redundant([a, b], params.r_obj, params.r_dim) == [a, b]

    nested = mk_cluster({0, 1, 2}, {0, 1}, 1.0, params)
    assert prune_redundant([nested, a], params.r_obj, params.r_dim) == [a]

    # r_obj = r_dim = 0: every later candidate overlaps (ratios >= 0), so
    # only the quality-maximal cluster survives
    kept = prune_redundant([nested, a, b], 0.0, 0.0)
    assert kept == [a]


def planted_clique_graph():
    """Three disjoint 5-cliques, each coherent in 4 of 10 attributes."""
    rng = np.random.default_rng(11)
    n, d = 15, 10
    attrs = rng.uniform(0.0, 1.0, (n, d))
    groups = [tuple(range(0, 5)), tuple(range(5, 10)), tuple(range(10, 15))]
    dims = [(0, 1, 2, 3), (4, 5, 6, 7), (6, 7, 8, 9)]
    centers = [0.15, 0.50, 0.85]
    for grp, dd, c in zip(groups, dims, centers):
        for i in grp:
            for j in dd:
                attrs[i, j] = c + rng.uniform(-0.015, 0.015)
    edges = [e for grp in groups for e in itertools.combinations(grp, 2)]
    edges += [(4, 5), (9, 10)]  # bridges keep the graph connected
    return make_graph(n, edges, attrs), groups


def test_grasp_recovers_planted_cliques():
    graph, groups = planted_clique_graph()
    params = ClusterParams(n_min=3, s_min=4, w=0.05, grasp_iterations=200)

    exact = enumerate_clusters_exact(graph, params, oracle_bound=15)
    assert sorted(c.members for c in exact.clusters) == sorted(groups)

    approx = grasp_cluster(graph, params)
    assert sorted(c.members for c in approx.clusters) == sorted(groups)
    for c in approx.clusters:
        check_cluster(graph, c, params)

    exact_total = sum(c.quality for c in exact.clusters)
    approx_total = sum(c.quality for c in approx.clusters)
    assert approx_total >= 0.95 * exact_total


def test_grasp_reruns_are_identical():
    graph, _ = planted_clique_graph()
    params = ClusterParams(n_min=3, s_min=4, w=0.05, grasp_iterations=64, rng_seed=5)
    first = grasp_cluster(graph, params)
    second = grasp_cluster(graph, params)
    assert first == second
    assert first.stats == second.stats

    other = grasp_cluster(graph, ClusterParams(
        n_min=3, s_min=4, w=0.05, grasp_iterations=64, rng_seed=6))
    # a different seed is allowed to find the same clusters, but the call
    # itself must not depend on hidden global state
    assert other == grasp_cluster(graph, ClusterParams(
        n_min=3, s_min=4, w=0.05, grasp_iterations=64, rng_seed=6))


def test_grasp_empty_when_no_subspace_feasible():
    # every pair differs by at least 0.2 in every attribute
    n = 6
    attrs = np.tile(np.linspace(0.0, 1.0, n)[:, None], (1, 4))
    edges = [(i, i + 1) for i in range(n - 1)]
    graph = make_graph(n, edges, attrs)
    params = ClusterParams(n_min=2, s_min=1, w=0.05, grasp_iterations=50)
    assert grasp_cluster(graph, params).clusters == []
    assert enumerate_clusters_exact(graph, params).clusters == []


def random_instance(rng):
    n = int(rng.integers(6, 13))
    d = int(rng.integers(4, 8))
    attrs = rng.random((n, d))
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < 0.45
    ]
    return make_graph(n, edges, attrs)


def test_grasp_clusters_satisfy_all_constraints():
    param_pool = [
        ClusterParams(n_min=2, s_min=1, gamma_min=0.5, w=0.35, grasp_iterations=40),
        ClusterParams(n_min=3, s_min=2, gamma_min=0.5, w=0.35, grasp_iterations=40),
        ClusterParams(n_min=2, s_min=2, gamma_min=0.7, w=0.2, grasp_iterations=40),
        ClusterParams(n_min=3, s_min=1, gamma_min=0.7, w=0.2, grasp_iterations=40),
    ]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        graph = random_instance(rng)
        params = param_pool[seed % len(param_pool)]
        result = grasp_cluster(graph, params)
        for c in result.clusters:
            check_cluster(graph, c, params)
        assert_no_redundant_pair(result.clusters, params)

        exact = enumerate_clusters_exact(graph, params, oracle_bound=12)
        if result.clusters:
            # every GRASP cluster is a valid candidate, so the exact search
            # admits something at least as good
            best_exact = max(c.quality for c in exact.clusters)
            for c in result.clusters:
                assert c in exact.clusters or best_exact >= c.quality - 1e-9


def test_exact_relabeling_invariance():
    cases = [two_triangle_graph(), planted_clique_graph()[0]]
    params_by_case = [
        ClusterParams(n_min=3, s_min=1, w=0.05),
        ClusterParams(n_min=3, s_min=4, w=0.05),
    ]
    rng = np.random.default_rng(42)
    for graph, params in zip(cases, params_by_case):
        base = enumerate_clusters_exact(graph, params, oracle_bound=15)
        base_set = {
            (frozenset(c.members), frozenset(c.subspace), c.gamma, c.quality)
            for c in base.clusters
        }
        for _ in range(4):
            perm = rng.permutation(graph.n_vertices)
            inv = np.argsort(perm)
            new_attrs = graph.attributes[inv]
            new_edges = [(int(perm[u]), int(perm[v])) for u, v in graph.edges]
            relabeled = make_graph(graph.n_vertices, new_edges, new_attrs)
            out = enumerate_clusters_exact(relabeled, params, oracle_bound=15)
            mapped = {
                (
                    frozenset(int(inv[m]) for m in c.members),
                    frozenset(c.subspace),
                    c.gamma,
                    c.quality,
                )
                for c in out.clusters
            }
            assert mapped == base_set


def test_more_members_required_never_adds_clustered_users():
    rng = np.random.default_rng(9)
    sizes = [4, 5, 6, 7]
    n = sum(sizes) + 4  # four background vertices
    d = 12
    attrs = rng.uniform(0.0, 1.0, (n, d))
    edges = []
    start = 0
    group_dims = [(0, 1, 2, 3), (2, 3, 4, 5), (6, 7, 8, 9), (8, 9, 10, 11)]
    for size, dd, center in zip(sizes, group_dims, [0.2, 0.4, 0.6, 0.8]):
        grp = range(start, start + size)
        for i in grp:
            for j in dd:
                attrs[i, j] = center + rng.uniform(-0.015, 0.015)
        edges += list(itertools.combinations(grp, 2))
        start += size
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in set(edges) and rng.random() < 0.08:
            edges.append((u, v))
    graph = make_graph(n, edges, attrs)

    counts = []
    for n_min in (2, 3, 4, 5, 6, 7, 8):
        params = ClusterParams(n_min=n_min, s_min=3, w=0.05, grasp_iterations=150)
        result = grasp_cluster(graph, params)
        covered = set()
        for c in result.clusters:
            covered.update(c.members)
        counts.append(len(covered))
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 0
    assert counts[-1] == 0  # no group reaches 8 members


def test_result_memberships_and_jsonl_roundtrip(tmp_path):
    graph, groups = planted_clique_graph()
    params = ClusterParams(n_min=3, s_min=4, w=0.05, grasp_iterations=80)
    result = grasp_cluster(graph, params)
    assert result.clusters

    member_map = result.memberships(graph.n_vertices)
    for ci, cluster in enumerate(result.clusters):
        for v in cluster.members:
            assert ci in member_map[v]
    for v, owners in enumerate(member_map):
        for ci in owners:
            assert v in result.clusters[ci].members

    path = tmp_path / "clusters.jsonl"
    write_clusters_jsonl(path, result, graph)
    back = read_clusters_jsonl(path, graph)
    assert back.params == params
    assert back.clusters == result.clusters


def test_read_clusters_jsonl_rejects_stale_or_edited_files(tmp_path):
    graph, _ = planted_clique_graph()
    params = ClusterParams(n_min=3, s_min=4, w=0.05, grasp_iterations=40)
    path = tmp_path / "clusters.jsonl"
    write_clusters_jsonl(path, grasp_cluster(graph, params), graph)
    header, first, *rest = path.read_text().splitlines()
    row = json.loads(first)

    def edited(lines, match):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match):
            read_clusters_jsonl(path, graph)

    renamed = dict(row, members=["NOSUCHUSER", *row["members"][1:]])
    edited([header, json.dumps(renamed), *rest], r"clusters.jsonl:2: unknown member 'NOSUCHUSER'")
    renamed = dict(row, subspace=[*row["subspace"][:-1], "no_such_attr"])
    edited([header, *rest, json.dumps(renamed)], rf"clusters.jsonl:{len(rest) + 2}: unknown subspace")
    edited([header, json.dumps({k: v for k, v in row.items() if k != "gamma"})],
           r"clusters.jsonl:2: missing key 'gamma'")
    edited([json.dumps({"n_clusters": 0})], r"clusters.jsonl:1: missing key 'params'")
    bad_params = dict(json.loads(header), params={"no_such_param": 1})
    edited([json.dumps(bad_params)], r"clusters.jsonl:1: .*no_such_param")
    edited([header, "", first[:-3]], r"clusters.jsonl:3: ")
    edited([header, "[1, 2]"], r"clusters.jsonl:2: ")
