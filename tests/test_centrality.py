import csv
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from insiderank.centrality import (
    _BLOCK,
    NonConvergenceError,
    betweenness_centrality,
    compute_centralities,
    degree_centrality,
    eigenvector_centrality,
    write_centrality_csv,
)
from insiderank.graph import AttributedGraph

from graph_sets import neighbour_sets


def make_graph(n, edges):
    ids = [f"U{i:02d}" for i in range(n)]
    return AttributedGraph(ids, edges, np.zeros((n, 1)), ["a0"])


def star(n):
    return make_graph(n, [(0, i) for i in range(1, n)])


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return make_graph(n, list(itertools.combinations(range(n), 2)))


def random_graph(rng, n, p):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return make_graph(n, edges)


def bfs_distances(adjacency, s):
    dist = [-1] * len(adjacency)
    dist[s] = 0
    queue = [s]
    while queue:
        nxt = []
        for v in queue:
            for u in adjacency[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        queue = nxt
    return dist


def all_shortest_paths(adjacency, s, t):
    dist = bfs_distances(adjacency, s)
    if dist[t] < 0:
        return []
    paths = []

    def walk(v, suffix):
        if v == s:
            paths.append([s] + suffix)
            return
        for u in adjacency[v]:
            if dist[u] == dist[v] - 1:
                walk(u, [v] + suffix)

    walk(t, [])
    return paths


def brute_betweenness(graph):
    """Independent oracle: enumerate every shortest path explicitly."""
    adjacency = neighbour_sets(graph)
    totals = [Fraction(0)] * graph.n_vertices
    for s, t in itertools.combinations(range(graph.n_vertices), 2):
        paths = all_shortest_paths(adjacency, s, t)
        if not paths:
            continue
        share = Fraction(1, len(paths))
        for p in paths:
            for v in p[1:-1]:
                totals[v] += share
    return totals


def test_degree_examples():
    s = star(5)
    assert degree_centrality(s).tolist() == [4, 1, 1, 1, 1]

    lonely = make_graph(3, [(0, 1)])
    assert degree_centrality(lonely).tolist() == [1, 1, 0]

    assert degree_centrality(cycle(4)).tolist() == [2, 2, 2, 2]


def test_eigenvector_complete_graph_uniform():
    ec = eigenvector_centrality(complete(5))
    assert ec.tolist() == [1.0] * 5


def test_eigenvector_star():
    ec = eigenvector_centrality(star(5))
    assert ec[0] == pytest.approx(1.0, abs=1e-8)
    for leaf in ec[1:]:
        assert leaf == pytest.approx(0.5, abs=1e-8)


def test_eigenvector_edge_plus_isolate():
    g = make_graph(3, [(0, 1)])
    assert eigenvector_centrality(g).tolist() == [1.0, 1.0, 0.0]


def test_eigenvector_residual_bound():
    tol = 1e-10
    for g in (star(7), cycle(6), path(9)):
        x = eigenvector_centrality(g, tol=tol)
        A = g.adjacency_matrix().astype(float)
        lam = float(x @ (A @ x)) / float(x @ x)
        assert np.abs(A @ x - lam * x).max() <= tol * lam


def test_eigenvector_matches_direct_decomposition():
    rng = np.random.default_rng(17)
    for _ in range(6):
        g = random_graph(rng, 8, 0.45)
        if g.n_edges == 0:
            continue
        ec = eigenvector_centrality(g)
        A = g.adjacency_matrix().astype(float)
        vals, vecs = np.linalg.eigh(A)
        dominant = np.abs(vecs[:, np.argmax(vals)])
        if dominant.max() > 0:
            dominant = dominant / dominant.max()
        # compare only where the direct eigenvector is supported; tiny
        # components decay to ~0 in the iterate rather than exactly 0
        mask = dominant > 1e-6
        assert np.allclose(ec[mask], dominant[mask], atol=1e-7)


def test_eigenvector_bipartite_converges():
    # complete bipartite graphs defeat plain adjacency iteration by
    # oscillating; the shifted operator must still converge
    edges = [(u, v) for u in range(2) for v in range(2, 5)]
    g = make_graph(5, edges)
    ec = eigenvector_centrality(g)
    A = g.adjacency_matrix().astype(float)
    vals, vecs = np.linalg.eigh(A)
    expected = np.abs(vecs[:, np.argmax(vals)])
    expected /= expected.max()
    assert np.allclose(ec, expected, atol=1e-8)


def test_eigenvector_disconnected_dominant_component_wins():
    edges = list(itertools.combinations(range(4), 2)) + [(4, 5)]
    g = make_graph(6, edges)
    ec = eigenvector_centrality(g)
    assert np.allclose(ec[:4], 1.0, atol=1e-8)
    # the weaker component decays toward zero but is not exactly zero
    assert ec[4] < 1e-8 and ec[5] < 1e-8


def test_eigenvector_degenerate_inputs():
    with pytest.raises(ValueError):
        eigenvector_centrality(make_graph(0, []))
    assert eigenvector_centrality(make_graph(4, [])).tolist() == [0.0] * 4


def test_eigenvector_nonconvergence_error():
    with pytest.raises(NonConvergenceError) as exc:
        eigenvector_centrality(star(5), max_iter=1)
    assert exc.value.residual >= 0.0


def test_betweenness_examples():
    assert betweenness_centrality(star(5)).tolist() == [6.0, 0.0, 0.0, 0.0, 0.0]
    assert betweenness_centrality(path(3)).tolist() == [0.0, 1.0, 0.0]
    assert betweenness_centrality(complete(6)).tolist() == [0.0] * 6


def test_betweenness_closed_forms():
    for n in range(5, 21):
        assert betweenness_centrality(star(n)).tolist() == [
            math.comb(n - 1, 2)
        ] + [0.0] * (n - 1)

        got_path = betweenness_centrality(path(n))
        assert got_path.tolist() == [i * (n - 1 - i) for i in range(n)]

        got_cycle = betweenness_centrality(cycle(n))
        if n % 2 == 1:
            expected = (n - 1) * (n - 3) / 8
        else:
            expected = (n / 2 - 1) ** 2 / 2
        assert got_cycle.tolist() == [expected] * n


def test_betweenness_matches_path_enumeration():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(4, 9))
        g = random_graph(rng, n, float(rng.choice([0.3, 0.5, 0.7])))
        oracle = np.array([float(x) for x in brute_betweenness(g)])
        exact = betweenness_centrality(g, exact=True)
        assert exact.tolist() == oracle.tolist()
        approx = betweenness_centrality(g)
        assert np.allclose(approx, oracle, rtol=1e-12, atol=1e-12)


def multi_component_graph(rng, sizes, n_isolated):
    """Sparse random components plus isolated vertices, labels shuffled so
    every component spans several source blocks."""
    edges, offset = [], 0
    for size in sizes:
        p = 4.0 / size
        edges += [(offset + u, offset + v)
                  for u, v in itertools.combinations(range(size), 2) if rng.random() < p]
        offset += size
    n = offset + n_isolated
    perm = rng.permutation(n)
    return make_graph(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


def test_betweenness_beyond_one_block_matches_exact():
    rng = np.random.default_rng(41)
    for sizes, n_isolated in (([90, 60, 30], 7), ([150, 40], 3), ([100, 100, 70, 5], 11)):
        g = multi_component_graph(rng, sizes, n_isolated)
        assert g.n_vertices > _BLOCK and g.n_vertices % _BLOCK != 0
        exact = betweenness_centrality(g, exact=True)
        approx = betweenness_centrality(g)
        assert np.allclose(approx, exact, rtol=1e-12, atol=1e-12)


def test_betweenness_deterministic():
    g = multi_component_graph(np.random.default_rng(5), [120, 80], 4)
    first = betweenness_centrality(g)
    assert betweenness_centrality(g).tolist() == first.tolist()


def test_centralities_convert_adjacency_once(monkeypatch):
    def fresh():
        return random_graph(np.random.default_rng(8), 60, 0.1)

    want_ec, want_bc = eigenvector_centrality(fresh()), betweenness_centrality(fresh())
    graph = fresh()
    calls = []
    real = AttributedGraph.adjacency_matrix
    monkeypatch.setattr(AttributedGraph, "adjacency_matrix",
                        lambda self: calls.append(self) or real(self))
    table = compute_centralities(graph)
    assert len(calls) == 1
    assert table.eigenvector.tobytes() == want_ec.tobytes()
    assert table.betweenness.tobytes() == want_bc.tobytes()


def stacked_diamonds(k, width):
    """k diamonds in a chain: width**k shortest paths between the ends."""
    edges = []
    for i in range(k):
        top, bottom = i * (width + 1), (i + 1) * (width + 1)
        for j in range(1, width + 1):
            edges += [(top, top + j), (top + j, bottom)]
    return make_graph(k * (width + 1) + 1, edges)


def test_betweenness_path_counts_beyond_float_precision():
    # 2**54 and 3**34 shortest paths end to end, past float64's exact
    # integers: the float path must hand both graphs to the exact path
    for k, width in ((54, 2), (34, 3)):
        g = stacked_diamonds(k, width)
        assert width**k > 2**53
        exact = betweenness_centrality(g, exact=True)
        assert betweenness_centrality(g).tolist() == exact.tolist()


def test_relabeling_invariance():
    rng = np.random.default_rng(31)
    g = random_graph(rng, 9, 0.45)
    while g.n_edges == 0:
        g = random_graph(rng, 9, 0.45)
    perm = rng.permutation(g.n_vertices)
    relabeled = make_graph(
        g.n_vertices, [(int(perm[u]), int(perm[v])) for u, v in g.edges]
    )

    deg = degree_centrality(g)
    deg2 = degree_centrality(relabeled)
    assert all(deg2[perm[v]] == deg[v] for v in range(g.n_vertices))

    bc = betweenness_centrality(g, exact=True)
    bc2 = betweenness_centrality(relabeled, exact=True)
    assert all(bc2[perm[v]] == bc[v] for v in range(g.n_vertices))

    ec = eigenvector_centrality(g)
    ec2 = eigenvector_centrality(relabeled)
    assert np.allclose([ec2[perm[v]] for v in range(g.n_vertices)], ec, atol=1e-9)


def test_table_and_csv(tmp_path):
    g = star(5)
    table = compute_centralities(g)
    assert table.deg_max == 4
    assert table.ec_max == 1.0
    assert table.bc_max == 6.0

    out = tmp_path / "centrality.csv"
    write_centrality_csv(out, g, table)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["user_id"] for r in rows] == list(g.user_ids)
    assert [int(r["degree"]) for r in rows] == table.degree.tolist()
    assert [float(r["eigenvector"]) for r in rows] == table.eigenvector.tolist()
    assert [float(r["betweenness"]) for r in rows] == table.betweenness.tolist()
