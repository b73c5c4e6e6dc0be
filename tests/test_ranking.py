import csv
import itertools

import numpy as np
import pytest

from insiderank.centrality import CentralityTable, compute_centralities
from insiderank.clustering import (
    ClusterParams,
    ClusteringResult,
    TwofoldCluster,
    enumerate_clusters_exact,
)
from insiderank.features import normalize_matrix
from insiderank.graph import AttributedGraph
from insiderank.ranking import (
    OutlierScoreTable,
    compute_scores,
    rank_users,
    read_scores_csv,
    write_ranking_csv,
    write_scores_csv,
)

PREFACTORS = np.array([1 / 3, 1 / 3, 1 / 3, 1 / 4, 1 / 4, 1 / 5])


def bare_graph(n, edges=()):
    ids = [f"U{i:02d}" for i in range(n)]
    return AttributedGraph(ids, edges, np.zeros((n, 1)), ["a0"])


def mk_cluster(members, subspace, gamma=1.0):
    return TwofoldCluster(
        members=tuple(sorted(members)),
        subspace=tuple(sorted(subspace)),
        gamma=gamma,
        quality=float(len(members) * len(subspace) * gamma),
    )


def mk_result(clusters):
    return ClusteringResult(list(clusters), ClusterParams())


def direct_scores(result, table, graph, outside=False):
    """Literal per-cluster bracket evaluation, term by term."""
    n = graph.n_vertices
    c_max, s_max = result.c_max, result.s_max
    deg_max, ec_max, bc_max = table.deg_max, table.ec_max, table.bc_max

    def norm(x, mx):
        return x / mx if mx > 0 else 0.0

    out = np.zeros((n, 6))
    for v in range(n):
        nd = norm(float(table.degree[v]), deg_max)
        ne = norm(float(table.eigenvector[v]), ec_max)
        nb = norm(float(table.betweenness[v]), bc_max)
        owning = [c for c in result.clusters if v in c.members]
        if not owning:
            continue
        if outside:
            cs = sum(
                norm(len(c.members), c_max) + norm(len(c.subspace), s_max)
                for c in owning
            )
            sums = np.array([cs + nd, cs + ne, cs + nb, cs + nd + ne, cs + nd + nb, cs + nd + ne + nb])
        else:
            sums = np.zeros(6)
            for c in owning:
                nc = norm(len(c.members), c_max)
                ns = norm(len(c.subspace), s_max)
                a = nc + ns + nd
                sums += [nc + ns + nd, nc + ns + ne, nc + ns + nb, a + ne, a + nb, a + ne + nb]
        out[v] = PREFACTORS * sums
    return out


def random_fixture(rng):
    n = int(rng.integers(5, 21))
    d = 12
    clusters = []
    for _ in range(int(rng.integers(0, 6))):
        size = int(rng.integers(2, n + 1))
        members = rng.choice(n, size=size, replace=False).tolist()
        dims = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist()
        clusters.append(mk_cluster(members, dims, float(rng.uniform(0.5, 1.0))))
    result = mk_result(clusters)
    deg = rng.integers(0, 10, n).astype(np.int64)
    ec = rng.random(n)
    bc = rng.random(n) * 5.0
    if rng.random() < 0.2:
        bc = np.zeros(n)
    if rng.random() < 0.1:
        deg = np.zeros(n, dtype=np.int64)
    table = CentralityTable(degree=deg, eigenvector=ec, betweenness=bc)
    return bare_graph(n), result, table


def test_worked_two_cluster_example():
    # v = vertex 0 sits in a 4-member cluster with 3 coherent attributes and
    # a 3-member cluster with 5; its degree is half the maximum
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)]
    graph = bare_graph(7, edges)
    result = mk_result(
        [mk_cluster({0, 1, 2, 3}, {0, 1, 2}), mk_cluster({0, 4, 5}, {0, 1, 2, 3, 4})]
    )
    deg = np.array([2, 4, 2, 1, 2, 1, 0], dtype=np.int64)
    table = CentralityTable(degree=deg, eigenvector=np.ones(7), betweenness=np.zeros(7))
    scores = compute_scores(result, table, graph)
    assert scores.score(1)[0] == pytest.approx(1.45, abs=1e-12)
    # (1/3) * [(4/4 + 3/5 + 0.5) + (3/4 + 5/5 + 0.5)]
    assert scores.score(1)[0] == pytest.approx((1 / 3) * (2.1 + 2.25), abs=1e-15)


def test_unclustered_vertices_score_zero_iff():
    rng = np.random.default_rng(0)
    for _ in range(20):
        graph, result, table = random_fixture(rng)
        scores = compute_scores(result, table, graph)
        clustered = set()
        for c in result.clusters:
            clustered.update(c.members)
        for v in range(graph.n_vertices):
            if v in clustered:
                assert all(scores.scores[v] > 0)
            else:
                assert scores.scores[v].tolist() == [0.0] * 6


def test_perfect_vertex_scores_exactly_one():
    graph = bare_graph(4, [(0, 1), (0, 2), (0, 3)])
    result = mk_result([mk_cluster({0, 1, 2, 3}, {0, 1})])
    table = CentralityTable(
        degree=np.array([3, 1, 1, 1], dtype=np.int64),
        eigenvector=np.array([1.0, 0.5, 0.5, 0.5]),
        betweenness=np.array([3.0, 0.0, 0.0, 0.0]),
    )
    scores = compute_scores(result, table, graph)
    assert scores.scores[0].tolist() == [1.0] * 6


def test_matches_direct_formula_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        graph, result, table = random_fixture(rng)
        for outside in (False, True):
            got = compute_scores(result, table, graph, centrality_outside_sum=outside)
            want = direct_scores(result, table, graph, outside=outside)
            assert np.allclose(got.scores, want, rtol=0.0, atol=1e-12)


def test_scores_bounded_by_membership_count():
    rng = np.random.default_rng(2)
    for _ in range(25):
        graph, result, table = random_fixture(rng)
        scores = compute_scores(result, table, graph)
        bound = scores.memberships.astype(float) + 1e-12
        assert (scores.scores <= bound[:, None]).all()


def test_additional_cluster_never_lowers_scores():
    rng = np.random.default_rng(3)
    for _ in range(15):
        graph, result, table = random_fixture(rng)
        n = graph.n_vertices
        extra_members = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        extra = mk_cluster(extra_members.tolist(), rng.choice(12, size=3, replace=False).tolist())
        bigger = mk_result(list(result.clusters) + [extra])
        if bigger.c_max != result.c_max or bigger.s_max != result.s_max:
            continue  # growth statement holds at fixed normalization context
        before = compute_scores(result, table, graph)
        after = compute_scores(bigger, table, graph)
        assert (after.scores >= before.scores - 1e-12).all()


def test_variants_agree_on_cycle():
    # every cycle vertex has identical degree, eigenvector and betweenness,
    # so all three normalized centralities are exactly 1
    n = 6
    graph = AttributedGraph(
        [f"U{i:02d}" for i in range(n)],
        [(i, (i + 1) % n) for i in range(n)],
        np.zeros((n, 1)),
        ["a0"],
    )
    table = compute_centralities(graph)
    result = mk_result([mk_cluster({0, 1, 2}, {0}, gamma=0.5), mk_cluster({2, 3, 4}, {0}, gamma=0.5)])
    scores = compute_scores(result, table, graph)
    assert scores.score(1).tolist() == scores.score(2).tolist()
    assert scores.score(1).tolist() == scores.score(3).tolist()


def test_complete_graph_degenerate_betweenness():
    # K_n has bc = 0 everywhere; the 0/0 rule zeroes the bc term, so
    # score_3 drops below score_1 while score_1 == score_2 exactly
    n = 5
    graph = bare_graph(n, list(itertools.combinations(range(n), 2)))
    table = compute_centralities(graph)
    assert table.bc_max == 0.0
    result = mk_result([mk_cluster(range(n), {0, 1})])
    scores = compute_scores(result, table, graph)
    assert scores.score(1).tolist() == scores.score(2).tolist()
    assert (scores.score(3) < scores.score(1)).all()


def test_rank_users_examples_and_ties():
    ids = ("U1", "U2")
    table = OutlierScoreTable(
        ids,
        np.column_stack([np.array([0.0, 2.4])] * 6),
        np.array([0, 3], dtype=np.int64),
    )
    assert rank_users(table, 1) == ["U1", "U2"]

    ids = ("U3", "U1", "U2")
    table = OutlierScoreTable(
        ids, np.full((3, 6), 1.5), np.array([1, 1, 1], dtype=np.int64)
    )
    assert rank_users(table, 1) == ["U1", "U2", "U3"]

    ids = ("U1", "U2", "U3")
    col = np.array([1.45, 0.0, 0.3])
    table = OutlierScoreTable(ids, np.column_stack([col] * 6), np.zeros(3, dtype=np.int64))
    assert rank_users(table, 4) == ["U2", "U3", "U1"]

    # equal scores, different membership counts: fewer memberships first
    ids = ("U1", "U2")
    table = OutlierScoreTable(
        ids, np.full((2, 6), 0.9), np.array([4, 2], dtype=np.int64)
    )
    assert rank_users(table, 1) == ["U2", "U1"]

    with pytest.raises(ValueError):
        rank_users(table, 7)


def test_ranks_are_permutations():
    rng = np.random.default_rng(4)
    graph, result, table = random_fixture(rng)
    scores = compute_scores(result, table, graph)
    n = graph.n_vertices
    for variant in range(1, 7):
        ranks = scores.ranks(variant)
        assert sorted(ranks.tolist()) == list(range(1, n + 1))
        order = rank_users(scores, variant)
        for pos, user in enumerate(order, start=1):
            idx = scores.user_ids.index(user)
            assert ranks[idx] == pos


def test_attribute_scaling_leaves_ranking_unchanged():
    rng = np.random.default_rng(5)
    n, d = 9, 6
    raw = rng.uniform(0.0, 50.0, (n, d))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    ids = [f"U{i:02d}" for i in range(n)]
    names = [f"a{j}" for j in range(d)]
    params = ClusterParams(n_min=2, s_min=1, w=0.3)

    rankings = []
    for scale in (1.0, 3.7):
        graph = AttributedGraph(ids, edges, normalize_matrix(raw * scale), names)
        result = enumerate_clusters_exact(graph, params, oracle_bound=n)
        table = compute_centralities(graph)
        scores = compute_scores(result, table, graph)
        rankings.append([rank_users(scores, v) for v in range(1, 7)])
    assert rankings[0] == rankings[1]


def test_mismatched_inputs_error():
    graph = bare_graph(4)
    short = CentralityTable(
        degree=np.zeros(3, dtype=np.int64),
        eigenvector=np.zeros(3),
        betweenness=np.zeros(3),
    )
    with pytest.raises(ValueError):
        compute_scores(mk_result([]), short, graph)

    table = CentralityTable(
        degree=np.zeros(4, dtype=np.int64),
        eigenvector=np.zeros(4),
        betweenness=np.zeros(4),
    )
    rogue = mk_result([mk_cluster({2, 7}, {0})])
    with pytest.raises(ValueError):
        compute_scores(rogue, table, graph)


def test_outside_sum_switch():
    graph = bare_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    result = mk_result([mk_cluster({0, 1, 2}, {0, 1}), mk_cluster({0, 3, 4}, {0, 2})])
    deg = np.array([4, 2, 2, 1, 1], dtype=np.int64)
    table = CentralityTable(degree=deg, eigenvector=np.ones(5), betweenness=np.ones(5))

    inside = compute_scores(result, table, graph)
    outside = compute_scores(result, table, graph, centrality_outside_sum=True)
    # vertex 0 has two memberships: inside counts its centrality twice
    nd0 = 1.0
    diff = inside.score(1)[0] - outside.score(1)[0]
    assert diff == pytest.approx(nd0 / 3, abs=1e-12)
    # single-membership vertices agree between the two readings
    for v in (1, 2, 3, 4):
        assert inside.score(1)[v] == pytest.approx(outside.score(1)[v], abs=1e-15)
    # unclustered behavior matches too: nothing here is unclustered, so
    # check the empty case explicitly
    empty = compute_scores(mk_result([]), table, graph, centrality_outside_sum=True)
    assert empty.scores.tolist() == np.zeros((5, 6)).tolist()


def test_normalization_maxima_from_results():
    graph = bare_graph(6, [(0, 1), (1, 2)])
    result = mk_result([mk_cluster({0, 1, 2}, {0, 1, 2, 3}), mk_cluster({3, 4}, {0})])
    table = compute_centralities(graph)
    assert result.c_max == 3 and result.s_max == 4
    assert table.deg_max == 2
    assert table.ec_max == 1.0
    assert table.bc_max == 1.0


def test_csv_roundtrips(tmp_path):
    rng = np.random.default_rng(6)
    graph, result, table = random_fixture(rng)
    scores = compute_scores(result, table, graph)

    spath = tmp_path / "scores.csv"
    write_scores_csv(spath, scores)
    back = read_scores_csv(spath)
    assert back.user_ids == scores.user_ids
    assert back.scores.tolist() == scores.scores.tolist()
    assert back.memberships.tolist() == scores.memberships.tolist()

    rpath = tmp_path / "ranking.1.csv"
    write_ranking_csv(rpath, scores, 1)
    with open(rpath) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["user_id"] for r in rows] == rank_users(scores, 1)
    assert [int(r["rank"]) for r in rows] == list(range(1, graph.n_vertices + 1))
    by_user = {u: i for i, u in enumerate(scores.user_ids)}
    for r in rows:
        assert float(r["score"]) == scores.score(1)[by_user[r["user_id"]]]
