"""Acceptance gate: eight end-to-end checks over the whole package.

Each check re-derives its expectations independently of the library code
(direct-formula evaluators, brute-force enumeration, exact rational
arithmetic, closed forms) and prints a single PASS line with its headline
numbers.  Check 7 reproduces reference results on the full CERT r4.2
dataset and only runs when CERT_R42_DIR points at a local copy.
"""

import json
import math
import os
import time
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from insiderank.centrality import (
    CentralityTable,
    betweenness_centrality,
    compute_centralities,
    degree_centrality,
    eigenvector_centrality,
)
from insiderank.cli import main as cli_main
from insiderank.clustering import (
    ClusterParams,
    ClusteringResult,
    TwofoldCluster,
    enumerate_clusters_exact,
    grasp_cluster,
)
from insiderank.evaluation import GroundTruth, load_ground_truth, roc_auc
from insiderank.features import (
    ATTRIBUTE_NAMES,
    attribute_matrix,
    extract_attributes,
    group_by_user,
    normalize_matrix,
)
from insiderank.graph import AttributedGraph, build_graph
from insiderank.ingest import load_ldap_snapshots, read_log_csv
from insiderank.ranking import compute_scores
from insiderank.synth import SynthSpec, generate_attributed_graph, generate_attributed_graph_detailed

from graph_sets import neighbour_sets


def report(k: int, detail: str) -> None:
    print(f"[criterion {k}] PASS - {detail}")


def bare_graph(n: int, edges=()) -> AttributedGraph:
    return AttributedGraph(
        user_ids=[f"U{i:04d}" for i in range(n)],
        edges=edges,
        attributes=np.zeros((n, 3)),
        attribute_names=["a0", "a1", "a2"],
    )


# -- criterion 1: scoring-formula oracle -------------------------------------


def direct_scores(result, cents, n):
    """Literal per-user reading of the six score formulas."""
    c_max = max((len(c.members) for c in result.clusters), default=0)
    s_max = max((len(c.subspace) for c in result.clusters), default=0)
    deg_max, ec_max, bc_max = cents.deg_max, cents.ec_max, cents.bc_max

    def norm(value, maximum):
        return value / maximum if maximum > 0 else 0.0

    out = np.zeros((n, 6))
    for i in range(n):
        nd = norm(float(cents.degree[i]), deg_max)
        ne = norm(float(cents.eigenvector[i]), ec_max)
        nb = norm(float(cents.betweenness[i]), bc_max)
        sums = [0.0] * 6
        for c in result.clusters:
            if i in c.members:
                base = len(c.members) / c_max + len(c.subspace) / s_max
                sums[0] += base + nd
                sums[1] += base + ne
                sums[2] += base + nb
                sums[3] += base + nd + ne
                sums[4] += base + nd + nb
                sums[5] += base + nd + ne + nb
        out[i] = [sums[0] / 3, sums[1] / 3, sums[2] / 3,
                  sums[3] / 4, sums[4] / 4, sums[5] / 5]
    return out


def random_cluster_fixture(rng):
    n = int(rng.integers(3, 26))
    params = ClusterParams()
    clusters = []
    for _ in range(int(rng.integers(0, 7))):
        size = int(rng.integers(1, n + 1))
        members = tuple(sorted(int(x) for x in rng.choice(n, size=size, replace=False)))
        dims = tuple(sorted(int(x) for x in rng.choice(10, size=int(rng.integers(1, 8)), replace=False)))
        clusters.append(TwofoldCluster(members=members, subspace=dims,
                                       gamma=float(rng.uniform(0.3, 1.0)),
                                       quality=float(rng.uniform(0.1, 50.0))))
    result = ClusteringResult(clusters=tuple(clusters), params=params)
    degree = rng.integers(0, 20, size=n).astype(float)
    eigen = rng.random(n)
    between = rng.random(n) * 40.0
    if rng.random() < 0.2:
        between[:] = 0.0
    if rng.random() < 0.1:
        degree[:] = 0.0
    cents = CentralityTable(degree=degree, eigenvector=eigen, betweenness=between)
    return n, result, cents


def test_criterion_1_scoring_formula_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(500):
        n, result, cents = random_cluster_fixture(rng)
        table = compute_scores(result, cents, bare_graph(n))
        expected = direct_scores(result, cents, n)
        worst = max(worst, float(np.abs(table.scores - expected).max()))
        assert np.allclose(table.scores, expected, rtol=0.0, atol=1e-12)

    # worked example: one user in two clusters, normalized terms
    # (1, 0.6, 0.5) and (0.75, 1, 0.5) average to 1.45
    clusters = (
        TwofoldCluster(members=(0, 1, 2, 3), subspace=(0, 1, 2), gamma=1.0, quality=12.0),
        TwofoldCluster(members=(0, 2, 3), subspace=(0, 1, 2, 3, 4), gamma=1.0, quality=15.0),
    )
    result = ClusteringResult(clusters=clusters, params=ClusterParams())
    cents = CentralityTable(
        degree=np.array([1.0, 2.0, 1.0, 1.0, 0.0]),
        eigenvector=np.array([0.5, 1.0, 0.5, 0.5, 0.0]),
        betweenness=np.array([1.0, 2.0, 1.0, 1.0, 0.0]),
    )
    table = compute_scores(result, cents, bare_graph(5))
    assert abs(table.score(1)[0] - 1.45) < 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s (budget 5s)"
    report(1, f"500 fixtures match the direct evaluator (max |diff| {worst:.2e}, "
              f"worked example 1.45, {elapsed:.1f}s)")


# -- criterion 2: clustering constraint suite --------------------------------


def subset_connected(adjacency, members):
    members = set(members)
    seen = {next(iter(members))}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for u in adjacency[v] & members:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == members


def check_cluster_contract(graph, cluster, params):
    members = cluster.members
    size = len(members)
    assert size >= params.n_min
    assert list(members) == sorted(set(members))
    adjacency = neighbour_sets(graph)
    assert subset_connected(adjacency, members)
    member_set = set(members)
    degs = [len(adjacency[v] & member_set) for v in members]
    assert min(degs) >= math.ceil(params.gamma_min * (size - 1))
    assert cluster.gamma == min(degs) / (size - 1)
    block = graph.attributes[list(members)]
    spread = block.max(axis=0) - block.min(axis=0)
    in_subspace = set(cluster.subspace)
    assert len(cluster.subspace) >= params.s_min
    for j in range(graph.attributes.shape[1]):
        if j in in_subspace:
            assert spread[j] <= params.w
        else:
            assert spread[j] > params.w  # subspace must be maximal
    expected = (size ** params.a_exp) * (len(cluster.subspace) ** params.b_exp) \
        * (cluster.gamma ** params.c_exp)
    assert math.isclose(cluster.quality, expected, rel_tol=1e-12, abs_tol=1e-12)


def assert_no_redundant_pairs(clusters, r_obj, r_dim):
    ordered = sorted(
        clusters,
        key=lambda c: (-c.quality, -len(c.members), -len(c.subspace), c.members),
    )
    for i, kept in enumerate(ordered):
        for later in ordered[i + 1:]:
            m_overlap = len(set(later.members) & set(kept.members)) / len(later.members)
            s_overlap = len(set(later.subspace) & set(kept.subspace)) / len(later.subspace)
            assert not (m_overlap >= r_obj and s_overlap >= r_dim), (kept, later)


def random_attributed_graph(rng):
    n = int(rng.integers(5, 31))
    d = int(rng.integers(4, 13))
    p = float(rng.uniform(0.1, 0.5))
    attrs = rng.random((n, d))
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    if rng.random() < 0.5:  # plant a coherent, densified block
        size = int(rng.integers(3, max(4, n // 2)))
        block = sorted(int(x) for x in rng.choice(n, size=size, replace=False))
        dims = sorted(int(x) for x in rng.choice(d, size=max(1, d // 2), replace=False))
        center = rng.random(len(dims)) * 0.8 + 0.1
        attrs[np.ix_(block, dims)] = center + (rng.random((size, len(dims))) - 0.5) * 0.04
        for u, v in combinations(block, 2):
            if rng.random() < 0.85:
                edges.append((u, v))
    return AttributedGraph(
        user_ids=[f"U{i:04d}" for i in range(n)],
        edges=edges,
        attributes=attrs,
        attribute_names=[f"attr_{j}" for j in range(d)],
    )


def test_criterion_2_clustering_constraint_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    emitted = 0
    for _ in range(200):
        graph = random_attributed_graph(rng)
        d = graph.attributes.shape[1]
        params = ClusterParams(
            n_min=int(rng.integers(2, 6)),
            s_min=int(rng.integers(1, min(6, d) + 1)),
            gamma_min=float(rng.uniform(0.3, 0.9)),
            w=float(rng.uniform(0.05, 0.4)),
            a_exp=float(rng.choice([0.5, 1.0, 2.0])),
            b_exp=float(rng.choice([0.5, 1.0, 2.0])),
            c_exp=float(rng.choice([0.5, 1.0, 2.0])),
            r_obj=float(rng.choice([0.0, 0.1, 0.3, 1.0])),
            r_dim=float(rng.choice([0.0, 0.1, 0.3, 1.0])),
            rng_seed=int(rng.integers(0, 2**31)),
            grasp_iterations=int(rng.integers(30, 90)),
        )
        result = grasp_cluster(graph, params)
        for cluster in result.clusters:
            check_cluster_contract(graph, cluster, params)
        assert_no_redundant_pairs(result.clusters, params.r_obj, params.r_dim)
        emitted += len(result.clusters)
    elapsed = time.perf_counter() - start
    assert emitted > 0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    report(2, f"200 random graphs, {emitted} emitted clusters all satisfy the "
              f"cluster contract, no redundant pairs ({elapsed:.1f}s)")


# -- criterion 3: approximation vs the exact enumerator ----------------------


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    recovered = 0
    worst_ratio = 1.0
    for seed in range(50):
        spec = SynthSpec(
            n_users=13, k_clusters=2, size_range=(4, 5), subspace_range=(4, 5),
            p_in=1.0, p_out=0.1, n_attributes=12, width=0.04,
            n_outliers=0, rng_seed=seed,
        )
        graph, _, planted, _ = generate_attributed_graph_detailed(spec)
        params = ClusterParams(n_min=3, s_min=3, gamma_min=0.6, w=0.05,
                               grasp_iterations=2000, rng_seed=seed)
        exact = enumerate_clusters_exact(graph, params, oracle_bound=14)
        approx = grasp_cluster(graph, params)
        exact_total = sum(c.quality for c in exact.clusters)
        approx_total = sum(c.quality for c in approx.clusters)
        ratio = approx_total / exact_total if exact_total else 1.0
        worst_ratio = min(worst_ratio, ratio)
        assert ratio >= 0.95, f"seed {seed}: quality ratio {ratio:.3f}"
        found = {c.members for c in approx.clusters}
        if all(pc.members in found for pc in planted):
            recovered += 1
    elapsed = time.perf_counter() - start
    assert recovered >= 45, f"planted member sets recovered in only {recovered}/50 instances"
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s (budget 120s)"
    report(3, f"50 planted instances: worst quality ratio {worst_ratio:.3f} (>=0.95), "
              f"planted recovery {recovered}/50 (>=45), {elapsed:.1f}s")


# -- criterion 4: centrality closed forms and brute force --------------------


def star(n):
    return bare_graph(n, [(0, i) for i in range(1, n)])


def path(n):
    return bare_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return bare_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return bare_graph(n, list(combinations(range(n), 2)))


def brute_betweenness(graph):
    """All-pairs shortest-path counting with exact rational shares."""
    n = len(graph.user_ids)
    adjacency = neighbour_sets(graph)
    dist = np.full((n, n), -1, dtype=np.int64)
    sigma = np.zeros((n, n), dtype=object)
    for s in range(n):
        dist[s][s] = 0
        sigma[s][s] = 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in sorted(adjacency[v]):
                if dist[s][u] < 0:
                    dist[s][u] = dist[s][v] + 1
                    queue.append(u)
                if dist[s][u] == dist[s][v] + 1:
                    sigma[s][u] += sigma[s][v]
    totals = [Fraction(0)] * n
    for s in range(n):
        for t in range(s + 1, n):
            if dist[s][t] < 0:
                continue
            for v in range(n):
                if v in (s, t) or dist[s][v] < 0 or dist[v][t] < 0:
                    continue
                if dist[s][v] + dist[v][t] == dist[s][t]:
                    totals[v] += Fraction(sigma[s][v] * sigma[v][t], sigma[s][t])
    return [float(t) for t in totals]


def test_criterion_4_centrality_closed_forms():
    start = time.perf_counter()
    for n in range(3, 51):
        bc = betweenness_centrality(star(n))
        assert bc[0] == float(math.comb(n - 1, 2))
        assert all(x == 0.0 for x in bc[1:])

        bc = betweenness_centrality(path(n))
        assert bc.tolist() == [float(i * (n - 1 - i)) for i in range(n)]

        bc = betweenness_centrality(cycle(n))
        if n % 2 == 1:
            expected = (n - 1) * (n - 3) / 8.0
        else:
            expected = (n / 2.0 - 1) ** 2 / 2.0
        assert bc.tolist() == [expected] * n

        bc = betweenness_centrality(complete(n))
        assert bc.tolist() == [0.0] * n

        ec = eigenvector_centrality(complete(n))
        assert np.abs(ec - 1.0).max() <= 1e-8

    rng = np.random.default_rng(4004)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(4, 11))
        p = float(rng.uniform(0.2, 0.7))
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        graph = bare_graph(n, edges)
        oracle = brute_betweenness(graph)
        assert betweenness_centrality(graph, exact=True).tolist() == oracle
        assert np.allclose(betweenness_centrality(graph), oracle, rtol=1e-12, atol=1e-12)
        checked += 1
    elapsed = time.perf_counter() - start
    report(4, f"closed forms exact for n<=50, complete-graph eigenvector uniform "
              f"to 1e-8, {checked} random graphs equal brute force ({elapsed:.1f}s)")


# -- criterion 5: AUC oracle --------------------------------------------------


def mann_whitney(scores, labels):
    pos = [s for s, m in zip(scores, labels) if m]
    neg = [s for s, m in zip(scores, labels) if not m]
    total = Fraction(0)
    for p in pos:
        for q in neg:
            if p < q:
                total += 1
            elif p == q:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


def test_criterion_5_auc_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(5005)
    for trial in range(1000):
        n = int(rng.integers(4, 41))
        if trial % 2 == 0:
            values = rng.integers(0, 6, size=n) / 5.0  # heavy ties
        else:
            values = rng.random(n)
        labels = rng.random(n) < float(rng.uniform(0.15, 0.85))
        if not labels.any() or labels.all():
            labels[0], labels[1] = True, False
        scores = {f"U{i}": float(values[i]) for i in range(n)}
        truth = GroundTruth(frozenset(f"U{i}" for i in range(n) if labels[i]))
        curve = roc_auc(scores, truth)
        assert abs(curve.auc - float(mann_whitney(values, labels))) <= 1e-9

        if trial < 150:  # monotone transforms leave the AUC bit-identical
            for transform in (lambda x: 3.0 * x + 1.0, lambda x: x ** 3):
                mapped = {u: float(transform(v)) for u, v in scores.items()}
                assert roc_auc(mapped, truth).auc == curve.auc

    perfect = roc_auc({"U1": 0.1, "U2": 0.15, "U3": 0.2, "U4": 0.9},
                      GroundTruth(frozenset({"U1", "U2"})))
    assert perfect.auc == 1.0
    ties = roc_auc({f"U{i}": 0.5 for i in range(8)},
                   GroundTruth(frozenset({"U0", "U1"})))
    assert ties.auc == 0.5
    elapsed = time.perf_counter() - start
    report(5, f"1000 score/label sets: sweep AUC equals rank-statistic AUC to 1e-9, "
              f"degenerate cases exact, monotone invariance exact ({elapsed:.1f}s)")


# -- criterion 6: end-to-end synthetic detection ------------------------------


def test_criterion_6_synthetic_detection():
    start = time.perf_counter()
    spec = SynthSpec(
        n_users=200, k_clusters=8, size_range=(8, 15), subspace_range=(10, 10),
        p_in=0.9, p_out=0.5, n_attributes=40, width=0.08,
        n_outliers=10, rng_seed=42,
    )
    graph, truth = generate_attributed_graph(spec)
    params = ClusterParams(
        n_min=2, s_min=8, gamma_min=0.5, w=0.1,
        a_exp=1.0, b_exp=0.0, c_exp=1.0, r_obj=0.6, r_dim=0.1,
        grasp_iterations=2000, rng_seed=42,
    )
    result = grasp_cluster(graph, params)
    cents = compute_centralities(graph)
    table = compute_scores(result, cents, graph)
    auc = roc_auc(dict(zip(graph.user_ids, table.score(1))), truth).auc
    elapsed = time.perf_counter() - start
    assert auc >= 0.90, f"score_1 AUC {auc:.4f} below 0.90"
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s (budget 60s)"
    report(6, f"200-user synthetic corpus: score_1 AUC {auc:.4f} (>=0.90), "
              f"{len(result.clusters)} clusters, {elapsed:.1f}s")


# -- criterion 7: full-scale CERT r4.2 reproduction (opt-in) ------------------


def test_criterion_7_cert_r42_reproduction():
    root = os.environ.get("CERT_R42_DIR")
    if not root:
        pytest.skip("set CERT_R42_DIR to a CERT r4.2 download to run this check")
    root = os.path.abspath(root)
    truth_path = os.environ.get("CERT_R42_TRUTH", os.path.join(root, "ground_truth.txt"))
    if not os.path.exists(truth_path):
        pytest.skip(f"ground truth file not found at {truth_path} "
                    "(set CERT_R42_TRUTH to the list of malicious user ids)")
    ldap_dir = os.path.join(root, "LDAP")

    start = time.perf_counter()
    directory = load_ldap_snapshots(ldap_dir)
    # one table per log, grouped and passed on as the pipeline does
    tables = {}
    for kind, name in (("logon", "logon.csv"), ("device", "device.csv"),
                       ("email", "email.csv"), ("file", "file.csv")):
        path = os.path.join(root, name)
        if os.path.exists(path):
            tables[kind] = read_log_csv(path, kind)
    vectors = extract_attributes(group_by_user(tables.values()), directory)
    users, matrix = attribute_matrix(vectors)
    graph = build_graph(directory, tables["email"], normalize_matrix(matrix), ATTRIBUTE_NAMES)
    assert len(graph.user_ids) == 1000, f"expected 1000 vertices, got {len(graph.user_ids)}"
    assert abs(len(graph.edges) - 116097) <= 0.15 * 116097, \
        f"edge count {len(graph.edges)} outside 116097 +/- 15%"

    params = ClusterParams(n_min=3, s_min=8, gamma_min=0.5, w=0.1,
                           grasp_iterations=2000, rng_seed=0)
    result = grasp_cluster(graph, params)
    cents = compute_centralities(graph)
    table = compute_scores(result, cents, graph)
    truth = load_ground_truth(truth_path)
    auc = roc_auc(dict(zip(graph.user_ids, table.score(1))), truth).auc
    assert abs(auc - 0.7648) <= 0.05, f"score_1 AUC {auc:.4f} not within 0.7648 +/- 0.05"

    # clustered-user count should not increase with the size floor
    counts = []
    for n_min in (2, 3, 4):
        sweep_params = ClusterParams(n_min=n_min, s_min=3, gamma_min=0.5, w=0.1,
                                     grasp_iterations=2000, rng_seed=0)
        sweep = grasp_cluster(graph, sweep_params)
        counts.append(sum(1 for m in sweep.memberships(len(graph.user_ids)) if m))
    assert counts[0] >= counts[1] >= counts[2], f"clustered-user counts increase: {counts}"
    elapsed = time.perf_counter() - start
    report(7, f"CERT r4.2: {len(graph.edges)} edges, score_1 AUC {auc:.4f}, "
              f"clustered users by size floor {counts} ({elapsed:.0f}s)")


# -- criterion 8: rerun determinism -------------------------------------------


def test_criterion_8_rerun_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    base = {
        "log_dir": str(corpus),
        "synth_n_users": 40, "synth_k_clusters": 3,
        "synth_size_lo": 4, "synth_size_hi": 6,
        "synth_n_outliers": 3, "synth_n_days": 10,
        "grasp_iterations": 400, "n_min": 2, "s_min": 4, "rng_seed": 7,
        "out_dir": str(tmp_path / "synth_out"),
    }
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(base))
    assert cli_main(["synth", "--config", str(config)]) == 0

    outputs = []
    for name in ("one", "one_again"):
        run_cfg = dict(base, out_dir=str(tmp_path / name))
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(run_cfg))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        outputs.append(tmp_path / name)

    reference = (outputs[0] / "scores.csv").read_bytes()
    for out in outputs[1:]:
        assert (out / "scores.csv").read_bytes() == reference
    for artifact in ("clusters.jsonl", "ranking.1.csv", "auc_summary.csv"):
        ref = (outputs[0] / artifact).read_bytes()
        for out in outputs[1:]:
            assert (out / artifact).read_bytes() == ref
    report(8, "pipeline reruns with the same config and seed produce "
              "byte-identical scores.csv and downstream artifacts")
