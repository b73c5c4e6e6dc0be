"""Graph construction from directory and email events."""

from __future__ import annotations

import random
import tracemalloc
from datetime import datetime

import numpy as np
import pytest

from insiderank.features import ATTRIBUTE_NAMES
from insiderank.graph import (
    AttributedGraph,
    build_graph,
    degree_profile,
    load_graph,
    write_edges_csv,
)
from insiderank.features import write_nodes_csv
from insiderank.ingest import OrgDirectory, RejectReport, UserRecord

from event_records import EmailPayload, LogEvent, table_of


def _directory():
    def rec(uid, name, sup=None):
        return UserRecord(uid, name, f"{uid.lower()}@dtaa.com", "R", "F", "D", "T", sup)

    return OrgDirectory(
        {
            "UA": rec("UA", "Ann Apple"),
            "UB": rec("UB", "Bo Berry", "UA"),
            "UC": rec("UC", "Cy Cedar"),
        }
    )


def _email(sender, to=(), cc=(), bcc=(), eid="e", user="UB"):
    return LogEvent(
        eid,
        datetime(2010, 1, 4, 10, 0),
        user,
        "PC-1",
        "email",
        EmailPayload(sender, tuple(to), tuple(cc), tuple(bcc), 100, 0),
    )


def _attrs(n, d=3):
    return np.zeros((n, d)), [f"a{i}" for i in range(d)]


def test_hierarchy_and_email_edges():
    directory = _directory()
    attrs, names = _attrs(3)
    events = [_email("ub@dtaa.com", to=("uc@dtaa.com",))]
    g = build_graph(directory, table_of(events), attrs, names)
    assert g.user_ids == ("UA", "UB", "UC")
    named = {tuple(sorted((g.user_ids[u], g.user_ids[v]))) for u, v in g.edges}
    assert named == {("UA", "UB"), ("UB", "UC")}


def test_self_email_adds_no_edge():
    directory = _directory()
    attrs, names = _attrs(3)
    events = [_email("ub@dtaa.com", to=("ub@dtaa.com",))]
    g = build_graph(directory, table_of(events), attrs, names)
    named = {tuple(sorted((g.user_ids[u], g.user_ids[v]))) for u, v in g.edges}
    assert named == {("UA", "UB")}  # hierarchy only


def test_external_recipients_create_nothing():
    directory = _directory()
    attrs, names = _attrs(3)
    g = build_graph(
        directory,
        table_of([_email("ub@dtaa.com", to=("friend@gmail.com",), cc=("spam@evil.org",))]),
        attrs,
        names,
    )
    assert g.n_vertices == 3  # vertices are directory users only, all of them
    named = {tuple(sorted((g.user_ids[u], g.user_ids[v]))) for u, v in g.edges}
    assert named == {("UA", "UB")}


def test_unresolvable_internal_address_rejects_whole_email():
    directory = _directory()
    attrs, names = _attrs(3)
    rejects = RejectReport()
    events = [
        _email("ub@dtaa.com", to=("uc@dtaa.com", "ghost@dtaa.com"), eid="bad"),
        _email("ub@dtaa.com", to=("ua@dtaa.com",), eid="good"),
    ]
    g = build_graph(directory, table_of(events), attrs, names, rejects=rejects)
    named = {tuple(sorted((g.user_ids[u], g.user_ids[v]))) for u, v in g.edges}
    # The UC edge from the first email must not appear: that email is skipped.
    assert named == {("UA", "UB")}
    assert len(rejects) == 1
    assert "ghost@dtaa.com" in rejects.rows[0][2]


def test_rejected_email_is_numbered_among_the_emails():
    # the pipeline hands build_graph every log's rows in one table; a reject
    # keeps the number it has in the email log parsed on its own
    directory = _directory()
    attrs, names = _attrs(3)
    emails = [_email("ub@dtaa.com", to=("ua@dtaa.com",), eid="good"),
              _email("ub@dtaa.com", to=("uc@dtaa.com", "ghost@dtaa.com"), eid="bad")]
    other = [LogEvent(f"o{i}", datetime(2010, 1, 4, 9, i), "UA", "PC-1", kind)
             for i, kind in enumerate(("logon", "device_connect", "logoff"))]
    built = []
    for events in (emails, [other[0], emails[0], other[1], other[2], emails[1]]):
        rejects = RejectReport()
        g = build_graph(directory, table_of(events), attrs, names, rejects=rejects)
        built.append((rejects.rows, g.edges.tolist()))
    assert built[0] == built[1]
    [(source, number, reason)] = built[0][0]
    assert (source, number) == ("<email-events>", 2) and "'bad'" in reason


def test_external_sender_builds_no_edges_and_no_reject():
    directory = _directory()
    attrs, names = _attrs(3)
    rejects = RejectReport()
    g = build_graph(
        directory,
        table_of([_email("outside@partner.com", to=("ua@dtaa.com", "uc@dtaa.com"))]),
        attrs,
        names,
        rejects=rejects,
    )
    named = {tuple(sorted((g.user_ids[u], g.user_ids[v]))) for u, v in g.edges}
    assert named == {("UA", "UB")}
    assert len(rejects) == 0


def test_subdomain_addresses_count_as_internal():
    directory = _directory()
    attrs, names = _attrs(3)
    rejects = RejectReport()
    build_graph(
        directory,
        table_of([_email("ub@dtaa.com", to=("nobody@mail.dtaa.com",))]),
        attrs,
        names,
        rejects=rejects,
    )
    assert len(rejects) == 1  # internal-domain address, but no such user


def test_duplicate_links_collapse():
    directory = _directory()
    attrs, names = _attrs(3)
    events = [
        _email("ub@dtaa.com", to=("uc@dtaa.com",), cc=("uc@dtaa.com",), bcc=("uc@dtaa.com",)),
        _email("uc@dtaa.com", to=("ub@dtaa.com",), user="UC"),
    ]
    g = build_graph(directory, table_of(events), attrs, names)
    assert g.n_edges == 2  # {UA,UB} and {UB,UC} exactly once


def test_event_order_does_not_change_the_graph():
    directory = _directory()
    attrs, names = _attrs(3)
    events = [
        _email("ub@dtaa.com", to=("uc@dtaa.com",), eid="1"),
        _email("ua@dtaa.com", to=("ub@dtaa.com", "uc@dtaa.com"), eid="2", user="UA"),
        _email("uc@dtaa.com", to=("ua@dtaa.com",), eid="3", user="UC"),
    ]
    g1 = build_graph(directory, table_of(events), attrs, names)
    rng = random.Random(5)
    for _ in range(5):
        shuffled = events[:]
        rng.shuffle(shuffled)
        g2 = build_graph(directory, table_of(shuffled), attrs, names)
        assert np.array_equal(g2.edges, g1.edges)


def test_constructor_rejects_self_loops_and_bad_shapes():
    with pytest.raises(ValueError):
        AttributedGraph(["a", "b"], [(0, 0)], np.zeros((2, 1)), ["x"])
    with pytest.raises(ValueError):
        AttributedGraph(["a", "b"], [(0, 1)], np.zeros((3, 1)), ["x"])
    with pytest.raises(ValueError):
        AttributedGraph(["a", "a"], [], np.zeros((2, 1)), ["x"])
    with pytest.raises(ValueError):
        AttributedGraph(["a", "b"], [(0, 2)], np.zeros((2, 1)), ["x"])


def test_handshake_lemma_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        p = float(rng.uniform(0.05, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = AttributedGraph([f"U{i:03d}" for i in range(n)], edges, np.zeros((n, 2)), ["a", "b"])
        assert int(g.degrees().sum()) == 2 * g.n_edges
        m = g.adjacency_matrix()
        assert np.array_equal(m, m.T)
        assert not m.diagonal().any()


def test_degree_profile():
    g = AttributedGraph(["a", "b", "c"], [(0, 1), (1, 2)], np.zeros((3, 1)), ["x"])
    profile = degree_profile(g)
    assert profile["n_vertices"] == 3
    assert profile["n_edges"] == 2
    assert profile["degree_max"] == 2
    assert profile["degree_min"] == 1


def test_edges_csv_round_trip_and_ordering(tmp_path):
    directory = _directory()
    attrs, names = _attrs(3)
    events = [_email("ub@dtaa.com", to=("uc@dtaa.com",))]
    g = build_graph(directory, table_of(events), attrs, names)

    nodes_path = tmp_path / "nodes.norm.csv"
    edges_path = tmp_path / "edges.csv"
    write_nodes_csv(nodes_path, list(g.user_ids), g.attributes, names)
    write_edges_csv(edges_path, g)

    text = edges_path.read_text().splitlines()
    assert text[0] == "src,dst"
    for line in text[1:]:
        src, dst = line.split(",")
        assert src < dst  # lexicographic orientation

    g2 = load_graph(nodes_path, edges_path)
    assert g2.user_ids == g.user_ids
    assert np.array_equal(g2.edges, g.edges)
    assert np.array_equal(g2.attributes, g.attributes)


# -- the constructor's contract ------------------------------------------------


def _graph(n, edges):
    return AttributedGraph([f"U{i:02d}" for i in range(n)], edges, np.zeros((n, 1)), ["x"])


def test_array_and_pair_input_give_the_same_graph():
    pairs = [(2, 0), (0, 1), (3, 1), (1, 2)]
    want = _graph(4, pairs)
    for edges in (np.array(pairs), np.array(pairs, dtype=np.int32), iter(pairs), set(pairs)):
        g = _graph(4, edges)
        assert np.array_equal(g.edges, want.edges)
        assert np.array_equal(g.adjacency_matrix(), want.adjacency_matrix())


def test_duplicate_and_reversed_pairs_collapse():
    g = _graph(4, [(0, 1), (1, 0), (0, 1), (3, 2), (2, 3)])
    assert g.edges.tolist() == [[0, 1], [2, 3]]
    assert g.n_edges == 2
    assert g.degrees().tolist() == [1, 1, 1, 1]


def test_edges_are_a_sorted_read_only_int64_array():
    rng = np.random.default_rng(4)
    pairs = [(int(u), int(v)) for u, v in rng.integers(0, 30, size=(200, 2)) if u != v]
    g = _graph(30, pairs)
    assert g.edges.dtype == np.int64 and g.edges.shape == (g.n_edges, 2)
    assert g.edges.tolist() == [list(e) for e in sorted({(min(e), max(e)) for e in pairs})]
    matrix = g.adjacency_matrix()
    assert matrix.dtype == bool and np.array_equal(matrix, matrix.T)
    assert np.array_equal(g.degrees(), np.bincount(g.edges.ravel(), minlength=30))
    with pytest.raises(ValueError):
        g.edges[0, 1] = 0
    with pytest.raises(ValueError):
        matrix[0, 0] = True


def test_empty_edge_list():
    for edges in ([], np.empty((0, 2), dtype=np.int64)):
        g = _graph(3, edges)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        assert g.n_edges == 0
        assert g.degrees().tolist() == [0, 0, 0]
        assert not g.adjacency_matrix().any()
    assert _graph(0, []).edges.shape == (0, 2)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2), (0, 5)], "self-loop at vertex 2"),
    ([(0, 1), (0, 5), (2, 2)], "edge (0, 5) out of range for 4 vertices"),
    ([(1, 0), (-1, 3)], "edge (-1, 3) out of range for 4 vertices"),
    ([(3, 3), (4, 4)], "self-loop at vertex 3"),
])
def test_errors_name_the_first_bad_edge_in_input_order(edges, message):
    for given in (edges, np.array(edges)):
        with pytest.raises(ValueError) as err:
            _graph(4, given)
        assert str(err.value) == message


def test_edges_csv_round_trip_is_array_equal(tmp_path):
    rng = np.random.default_rng(9)
    n = 40
    ids = [f"U{i:03d}" for i in rng.permutation(n)]  # not in sorted order
    pairs = rng.integers(0, n, size=(150, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    g = AttributedGraph(ids, pairs, rng.random((n, 2)), ["a", "b"])
    write_nodes_csv(tmp_path / "nodes.norm.csv", list(g.user_ids), g.attributes, g.attribute_names)
    write_edges_csv(tmp_path / "edges.csv", g)
    rows = (tmp_path / "edges.csv").read_text().splitlines()[1:]
    assert rows == sorted(rows) and all(src < dst for src, dst in (r.split(",") for r in rows))
    g2 = load_graph(tmp_path / "nodes.norm.csv", tmp_path / "edges.csv")
    assert g2.user_ids == g.user_ids
    assert np.array_equal(g2.edges, g.edges)


def test_construction_memory_stays_small():
    # 1000 vertices and 68k distinct edges, about the shape of a CERT-sized
    # email graph: the edges are held once as an array, plus a 1 MB matrix
    n, m = 1000, 68_000
    rng = np.random.default_rng(11)
    iu, iv = np.triu_indices(n, 1)
    pick = rng.choice(len(iu), size=m, replace=False)
    edges = np.column_stack([iu[pick], iv[pick]])
    ids, attrs = [f"U{i:04d}" for i in range(n)], np.zeros((n, 1))
    tracemalloc.start()
    try:
        g = AttributedGraph(ids, edges, attrs, ["x"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_edges == m
    assert peak < 8 * 2**20, f"construction peaked at {peak / 2**20:.1f} MiB"
