import hashlib
from collections import deque

import numpy as np
import pytest

from insiderank import cli, synth
from insiderank.clustering import ClusterParams, enumerate_clusters_exact, quasi_clique_gamma
from insiderank.evaluation import load_ground_truth
from insiderank.features import (
    ATTRIBUTE_NAMES,
    CalendarConfig,
    attribute_matrix,
    extract_attributes,
    group_by_user,
    normalize_matrix,
)
from insiderank.graph import build_graph
from insiderank.ingest import LOG_LAYOUTS, load_ldap_snapshots, read_log_csv
from insiderank.synth import (
    GAMMA_FLOOR,
    SynthSpec,
    generate_attributed_graph,
    generate_attributed_graph_detailed,
    generate_logs,
)

from event_records import assert_payload_layout
from graph_sets import neighbour_sets


def small_spec(**overrides):
    base = dict(
        n_users=40,
        k_clusters=3,
        size_range=(4, 6),
        subspace_range=(3, 4),
        p_in=0.9,
        p_out=0.08,
        n_attributes=12,
        width=0.05,
        n_outliers=3,
        rng_seed=17,
    )
    base.update(overrides)
    return SynthSpec(**base)


def connected(graph, members):
    adjacency = neighbour_sets(graph)
    members = set(members)
    seen = {next(iter(members))}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in members and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen == members


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(p_in=0.1, p_out=0.2)  # p_in must dominate
    with pytest.raises(ValueError):
        small_spec(p_in=0.5, p_out=0.5)
    with pytest.raises(ValueError):
        small_spec(n_users=10)  # 3 clusters of up to 6 cannot fit
    with pytest.raises(ValueError):
        small_spec(size_range=(1, 4))
    with pytest.raises(ValueError):
        small_spec(subspace_range=(3, 13))
    with pytest.raises(ValueError):
        small_spec(n_outliers=41)
    with pytest.raises(ValueError):
        small_spec(k_clusters=0, n_outliers=1, n_users=50)
    with pytest.raises(ValueError):
        small_spec(width=0.0)  # outliers cannot deviate from width 0
    with pytest.raises(ValueError):
        small_spec(width=0.3)
    with pytest.raises(ValueError):
        small_spec(rng_seed=-1)
    small_spec(k_clusters=0, n_outliers=0, width=0.0)  # fine without outliers


def test_pure_noise_graph():
    spec = small_spec(k_clusters=0, n_outliers=0, n_users=30)
    graph, truth = generate_attributed_graph(spec)
    assert len(truth) == 0
    assert len(graph.user_ids) == 30
    assert graph.user_ids[0] == "U0001" and graph.user_ids[-1] == "U0030"
    assert graph.attributes.shape == (30, 12)
    assert graph.attributes.min() >= 0.0 and graph.attributes.max() <= 1.0
    # edge count should be in the fat plausible band around p_out * n_pairs
    expected = 0.08 * 30 * 29 / 2
    assert 0.3 * expected <= len(graph.edges) <= 3.0 * expected


def test_same_seed_reproduces_exactly():
    spec = small_spec()
    g1, t1, p1, h1 = generate_attributed_graph_detailed(spec)
    g2, t2, p2, h2 = generate_attributed_graph_detailed(spec)
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(g1.attributes, g2.attributes)
    assert t1.users == t2.users
    assert p1 == p2 and h1 == h2

    g3, _ = generate_attributed_graph(small_spec(rng_seed=18))
    assert not np.array_equal(g3.edges, g1.edges)


def test_planted_clusters_hold_their_contract():
    for seed in range(6):
        spec = small_spec(rng_seed=seed)
        graph, truth, planted, hosts = generate_attributed_graph_detailed(spec)
        assert len(planted) == 3
        all_members = [m for pc in planted for m in pc.members]
        assert len(set(all_members)) == len(all_members)  # disjoint
        for pc in planted:
            assert quasi_clique_gamma(graph, list(pc.members)) >= GAMMA_FLOOR
            assert connected(graph, pc.members)
            block = graph.attributes[np.ix_(list(pc.members), list(pc.subspace))]
            assert float((block.max(axis=0) - block.min(axis=0)).max()) <= spec.width
            assert len(pc.subspace) in (3, 4)


def test_outliers_are_wired_in_but_deviate():
    spec = small_spec()
    graph, truth, planted, hosts = generate_attributed_graph_detailed(spec)
    assert len(truth) == spec.n_outliers
    assert set(hosts) == {graph.index[u] for u in truth.users}
    adjacency = neighbour_sets(graph)
    for o, g in hosts.items():
        members, dims = list(planted[g].members), list(planted[g].subspace)
        neighbours = adjacency[o]
        assert neighbours, "outlier must touch its host cluster"
        assert neighbours <= set(members), "outlier edges stay inside the host"
        joined = graph.attributes[np.ix_(members + [o], dims)]
        assert float((joined.max(axis=0) - joined.min(axis=0)).max()) > spec.width
        # every host-subspace value sits at least 2*width off the group
        block = graph.attributes[np.ix_(members, dims)]
        gap = np.minimum(
            np.abs(graph.attributes[o, dims] - block.min(axis=0)),
            np.abs(graph.attributes[o, dims] - block.max(axis=0)),
        )
        assert float(gap.min()) >= 1.5 * spec.width


def test_three_planted_cliques_found_by_exhaustive_search():
    spec = SynthSpec(
        n_users=15,
        k_clusters=3,
        size_range=(5, 5),
        subspace_range=(2, 3),
        p_in=1.0,
        p_out=0.0,
        n_attributes=6,
        width=0.05,
        n_outliers=0,
        rng_seed=3,
    )
    graph, truth, planted, _ = generate_attributed_graph_detailed(spec)
    assert len(truth) == 0
    params = ClusterParams(n_min=3, s_min=2, gamma_min=0.6, w=0.05)
    result = enumerate_clusters_exact(graph, params, oracle_bound=15)
    found = {c.members for c in result.clusters}
    assert found == {pc.members for pc in planted}
    by_members = {c.members: c for c in result.clusters}
    for pc in planted:
        cluster = by_members[pc.members]
        assert set(pc.subspace) <= set(cluster.subspace)
        assert cluster.gamma == 1.0


def load_corpus(out):
    """The parsed logs, one table per log kind, and the directory."""
    tables = {kind: read_log_csv(out / layout.file_name, kind)
              for kind, layout in LOG_LAYOUTS.items()}
    directory = load_ldap_snapshots(out / "ldap")
    return tables, directory


def test_silent_user_gets_default_vector(tmp_path):
    spec = small_spec(n_users=5, k_clusters=0, n_outliers=0)
    calendar = CalendarConfig()
    generate_logs(spec, calendar, tmp_path, n_days=5, silent_users={"U0005"})
    tables, directory = load_corpus(tmp_path)
    assert len(directory) == 5
    assert all(t.users[code] != "U0005" for t in tables.values() for code in t.user.tolist())
    vectors = extract_attributes(group_by_user(tables.values()), directory, calendar)
    users, matrix = attribute_matrix(vectors)
    row = matrix[users.index("U0005")]
    activity = [i for i, name in enumerate(ATTRIBUTE_NAMES) if not name.endswith("_code")]
    assert np.all(row[activity] == 0.0)
    busy = matrix[users.index("U0001")]
    assert np.any(busy[activity] > 0.0)


def test_outlier_logs_heavy_after_hours(tmp_path):
    spec = small_spec(
        n_users=6, k_clusters=1, size_range=(3, 3), subspace_range=(2, 2),
        n_attributes=6, n_outliers=1,
    )
    calendar = CalendarConfig()
    generate_logs(spec, calendar, tmp_path, n_days=10)
    tables, directory = load_corpus(tmp_path)
    truth = load_ground_truth(tmp_path / "ground_truth.txt")
    assert truth.users == {"U0004"}  # group takes U0001-U0003, outlier is next
    vectors = extract_attributes(group_by_user(tables.values()), directory, calendar)
    users, matrix = attribute_matrix(vectors)
    ah_cols = [
        ATTRIBUTE_NAMES.index(f"logons_per_day_ah_{stat}") for stat in ("max", "min", "avg")
    ]
    outlier_row = matrix[users.index("U0004")]
    for col in ah_cols:
        peers = [matrix[i, col] for i, u in enumerate(users) if u != "U0004"]
        assert outlier_row[col] > max(peers)
    assert outlier_row[ah_cols[0]] >= 3.0


def test_built_tables_keep_each_payload_for_its_kind(tmp_path, monkeypatch):
    built = {}
    write_log_file = synth.write_log_file

    def write(path, table, kind):
        built[kind] = table
        write_log_file(path, table, kind)

    monkeypatch.setattr(synth, "write_log_file", write)
    generate_logs(small_spec(n_users=12, k_clusters=2, size_range=(3, 4), n_outliers=1),
                  CalendarConfig(), tmp_path, n_days=7)
    assert list(built) == list(LOG_LAYOUTS)
    assert len(built["email"]) and len(built["file"])
    for table in built.values():
        assert_payload_layout(table)


def test_rerun_is_byte_identical(tmp_path):
    spec = small_spec(n_users=12, k_clusters=2, size_range=(3, 4), n_outliers=1)
    calendar = CalendarConfig()
    a, b = tmp_path / "a", tmp_path / "b"
    generate_logs(spec, calendar, a, n_days=7)
    generate_logs(spec, calendar, b, n_days=7)
    names = ["logon.csv", "device.csv", "email.csv", "file.csv",
             "ldap/2009-12.csv", "ground_truth.txt"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_log_scale_bounds(tmp_path):
    calendar = CalendarConfig()
    big = small_spec(n_users=201, k_clusters=0, n_outliers=0)
    with pytest.raises(ValueError):
        generate_logs(big, calendar, tmp_path)
    spec = small_spec(n_users=8, k_clusters=0, n_outliers=0)
    with pytest.raises(ValueError):
        generate_logs(spec, calendar, tmp_path, n_days=61)
    with pytest.raises(ValueError):
        generate_logs(spec, calendar, tmp_path, n_days=0)


def test_logs_reconstruct_group_edges(tmp_path):
    spec = small_spec(n_users=14, k_clusters=2, size_range=(4, 5), n_outliers=1)
    calendar = CalendarConfig()
    generate_logs(spec, calendar, tmp_path, n_days=10)
    tables, directory = load_corpus(tmp_path)
    vectors = extract_attributes(group_by_user(tables.values()), directory, calendar)
    users, matrix = attribute_matrix(vectors)
    graph = build_graph(directory, tables["email"], normalize_matrix(matrix), ATTRIBUTE_NAMES)
    assert graph.user_ids == tuple(users)
    _, _, planted, hosts = generate_attributed_graph_detailed(spec)
    adjacency = neighbour_sets(graph)
    # group peers email each other, so every planted member has an in-group edge
    for pc in planted:
        for m in pc.members:
            assert adjacency[m] & set(pc.members), (m, pc.members)
    # the outlier reaches its host group through email or supervisor links
    for o, g in hosts.items():
        assert adjacency[o] & set(planted[g].members)


# sha256 of every file generate_logs writes, keyed by its path under the
# corpus directory: the CLI's default synth spec at seeds 1 and 2, and the
# benchmark's cap spec (200 users, 60 days) at seed 1.  Taken from the
# generator that built and wrote one event object at a time; the columnar
# generator must keep every byte and every rng draw.
PINNED_SYNTH = {
    "default-1": {
        "logon.csv": "9d36cfc49179db6c30ea55c84dba56db175264320ae536b2752ba33b6e6887cb",
        "device.csv": "10f0e3e4010fd7484b2431be0133f1b6751fdce2e3643e0b7c1f5f99b210a39d",
        "email.csv": "d5046db56348ad0a7a8ed0dce5f0fc88ff68e7ab6f91c7fde23f835241226f9e",
        "file.csv": "f46de7f4cbeef035de7fd5dcb83d565c78f1c103f1847a8745db4198a59b3d84",
        "ldap/2009-12.csv": "e6bb3cb01d8abb2879987bf77918a4f6cf4ffa8519c8238d79fbaef07c64a7dd",
        "ground_truth.txt": "587c73b632e7ce82c05fa32cc336951573a6ce1059a267b65e56d631b25819d2",
    },
    "default-2": {
        "logon.csv": "6ed4ca6a53b0ffa8390d7cfe391ffa7fd3ece0f3cb64683ca91170f0734fc977",
        "device.csv": "5fe774ac0fc67a35119244b7c23746fd2fabeebc8ef6a172337d5e70faf777af",
        "email.csv": "86b48632c578d684936cef120127114027f721481d3e66bb9ed0b6e2e795cb8d",
        "file.csv": "cd4d5df4b4c1d0f3f8c12951d253b2a1fa56e5b7967a37e325972352042dc896",
        "ldap/2009-12.csv": "3c5a58f36e46530433ee494e9ba83447f024b3ed300af4a5d6bab4628a2332ec",
        "ground_truth.txt": "0853222a46c59f5496bdf3ec827bde0e29041dbc37a552e2fee94337b452e588",
    },
    "cap-1": {
        "logon.csv": "426a42c8fd12fb8063043f2648c300c48a4c2691a4119ffd2381aee0e7aa9640",
        "device.csv": "2878452f7ced6ed20e087d763edc223f6475b02d53e82d2c28d187fccb006572",
        "email.csv": "67bfb014d19866ebba74c5d3ab85fe6b35ebd0aa68116c202b218447d7190c05",
        "file.csv": "7193cf1a4d34b504729c9487cc465fd73c3a028a91ad86c0a49928f0aa36982e",
        "ldap/2009-12.csv": "cfc3d746284ff102a492e80e5c29a70608cd69da632ce9711388007e7509ee36",
        "ground_truth.txt": "c1577aeb18874beb5d71f28ec31d2c282b29a226cd838fbd06af4ff88a7ccd0e",
    },
}


def _pinned_case(case):
    """The spec, calendar and day count of a PINNED_SYNTH case."""
    name, seed = case.rsplit("-", 1)
    if name == "default":
        cfg = {**cli.DEFAULTS, "rng_seed": int(seed)}
        return cli._synth_spec(cfg), cli._calendar(cfg), cfg["synth_n_days"]
    spec = SynthSpec(n_users=200, k_clusters=20, size_range=(5, 9), subspace_range=(8, 10),
                     p_in=0.9, p_out=0.05, n_attributes=40, width=0.05, n_outliers=10,
                     rng_seed=int(seed))
    return spec, CalendarConfig(), 60


@pytest.mark.parametrize("case", sorted(PINNED_SYNTH))
def test_synth_output_is_pinned(tmp_path, case):
    spec, calendar, n_days = _pinned_case(case)
    corpus = generate_logs(spec, calendar, tmp_path, n_days=n_days)
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in corpus.paths}
    assert written == PINNED_SYNTH[case]
