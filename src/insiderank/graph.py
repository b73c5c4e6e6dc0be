"""User-relationship graph with per-vertex attribute rows.

Vertices are the directory users (sorted by user id, one vertex each,
active or not).  The graph is undirected, unweighted and simple.  Edges come
from two sources:

* organisational hierarchy: each user is linked to their supervisor;
* email: every email links its sender to each internal recipient in
  TO, CC and BCC, with senders and recipients resolved to users by address.

Recipients outside the enterprise domain never create vertices or edges
(they only feed the external-contact attribute).  An internal-domain address
that does not resolve to a directory user rejects the whole email for edge
purposes and is recorded in the reject report.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .features import _is_internal, read_nodes_csv
from .ingest import EMAIL, EventTable, OrgDirectory, RejectReport, _csv_rows, _distinct

__all__ = [
    "AttributedGraph",
    "build_graph",
    "degree_profile",
    "load_graph",
    "read_edges_csv",
    "write_edges_csv",
]

# What an email address resolves to, besides a vertex index.
_EXTERNAL, _UNRESOLVED = -1, -2


class AttributedGraph:
    """Immutable undirected simple graph plus an aligned attribute matrix."""

    def __init__(
        self,
        user_ids: Sequence[str],
        edges: Iterable[tuple[int, int]],
        attributes: np.ndarray,
        attribute_names: Sequence[str],
    ) -> None:
        self.user_ids: tuple[str, ...] = tuple(user_ids)
        if len(set(self.user_ids)) != len(self.user_ids):
            raise ValueError("duplicate user ids")
        n = len(self.user_ids)
        self.attributes = np.asarray(attributes, dtype=np.float64)
        self.attribute_names: tuple[str, ...] = tuple(attribute_names)
        if self.attributes.shape != (n, len(self.attribute_names)):
            raise ValueError(
                f"attribute matrix shape {self.attributes.shape} does not match "
                f"{n} vertices x {len(self.attribute_names)} attributes"
            )
        self.index: dict[str, int] = {u: i for i, u in enumerate(self.user_ids)}

        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            edge_set.add((u, v) if u < v else (v, u))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))

        adjacency: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.adjacency: tuple[frozenset[int], ...] = tuple(frozenset(a) for a in adjacency)
        self._matrix: np.ndarray | None = None
        self._float_matrix: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.user_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.adjacency], dtype=np.int64)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency; cached after the first call."""
        if self._matrix is None:
            m = np.zeros((self.n_vertices, self.n_vertices), dtype=bool)
            for u, v in self.edges:
                m[u, v] = m[v, u] = True
            self._matrix = m
        return self._matrix

    def float_adjacency_matrix(self) -> np.ndarray:
        """Dense float64 adjacency for matrix products; cached after the
        first call, so eigenvector and betweenness centrality share one."""
        if self._float_matrix is None:
            self._float_matrix = self.adjacency_matrix().astype(np.float64)
        return self._float_matrix


def build_graph(
    directory: OrgDirectory,
    email_events: EventTable,
    attributes: np.ndarray,
    attribute_names: Sequence[str],
    *,
    internal_domain: str = "dtaa.com",
    rejects: RejectReport | None = None,
) -> AttributedGraph:
    """Assemble the graph from the directory and the email events, a parsed
    email log (rows of other kinds are skipped).

    ``attributes`` must be aligned with the directory users in sorted user-id
    order (the order produced by feature extraction).  A rejected email is
    numbered by its position among ``email_events``, counting from 1.
    """
    if rejects is None:
        rejects = RejectReport()
    user_ids = directory.sorted_user_ids()
    index = {u: i for i, u in enumerate(user_ids)}
    address_book = directory.email_to_user()

    edges: set[tuple[int, int]] = set()
    for uid in user_ids:
        sup = directory.users[uid].supervisor
        if sup is None:
            continue
        if sup not in index:
            raise ValueError(f"user {uid!r} has supervisor {sup!r} outside the directory")
        a, b = index[uid], index[sup]
        if a != b:
            edges.add((a, b) if a < b else (b, a))

    table = email_events

    def resolve(address: str) -> int:
        if not _is_internal(address, internal_domain):
            return _EXTERNAL  # attribute material only
        uid = address_book.get(address.lower())
        return _UNRESOLVED if uid is None else index[uid]

    # each distinct address is resolved once
    vertex = np.array([resolve(a) for a in table.addresses], np.int64)
    emails = table.kind == EMAIL
    sender = np.full(len(table), _EXTERNAL)
    sender[emails] = vertex[table.sender[emails]]
    ends = table.recipient_ptr[::3]
    row = np.repeat(np.arange(len(table)), np.diff(ends))  # the email of each recipient
    recipient = vertex[table.recipients]
    bad = sender == _UNRESOLVED
    bad[row[recipient == _UNRESOLVED]] = True
    for i in np.flatnonzero(bad).tolist():
        # the first unresolved address, in the order sender, to, cc, bcc
        codes = [table.sender[i], *table.recipients[ends[i]:ends[i + 1]].tolist()]
        address = next(table.addresses[c] for c in codes if vertex[c] == _UNRESOLVED)
        event_id = table.ids[table.id_ptr[i]:table.id_ptr[i + 1]]
        rejects.add(
            "<email-events>",
            i + 1,
            f"event {event_id!r}: internal address {address!r} does not "
            f"resolve to a directory user",
            "unresolved address",
        )
    # an external sender anchors no edges
    s = sender[row]
    linked = ~bad[row] & (s >= 0) & (recipient >= 0) & (recipient != s)
    n = max(len(user_ids), 1)
    pairs = _distinct(np.minimum(s, recipient)[linked] * n + np.maximum(s, recipient)[linked])
    edges.update(zip((pairs // n).tolist(), (pairs % n).tolist()))

    return AttributedGraph(user_ids, edges, attributes, attribute_names)


def degree_profile(graph: AttributedGraph) -> dict[str, float]:
    """Headline counts for manifests and logs."""
    degrees = graph.degrees()
    profile: dict[str, float] = {
        "n_vertices": int(graph.n_vertices),
        "n_edges": int(graph.n_edges),
    }
    if graph.n_vertices:
        profile.update(
            degree_min=int(degrees.min()),
            degree_max=int(degrees.max()),
            degree_mean=float(degrees.mean()),
        )
    return profile


def write_edges_csv(path: str | Path, graph: AttributedGraph) -> None:
    """Write undirected edges as ``src,dst`` user-id pairs, src < dst."""
    rows = sorted(
        tuple(sorted((graph.user_ids[u], graph.user_ids[v]))) for u, v in graph.edges
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        writer.writerows(rows)


def read_edges_csv(path: str | Path, index: Mapping[str, int]) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    with open(path, newline="") as fh:
        rows = _csv_rows(fh, str(path))
        _, header = next(rows, (0, None))
        if header != ["src", "dst"]:
            raise ValueError(f"{path}: expected an edge table with header src,dst")
        for _, row in rows:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: bad edge row {row!r}")
            src, dst = row
            if src not in index or dst not in index:
                raise ValueError(f"{path}: edge references unknown user {row!r}")
            edges.append((index[src], index[dst]))
    return edges


def load_graph(nodes_csv: str | Path, edges_csv: str | Path) -> AttributedGraph:
    """Rebuild a graph from the nodes table and edge list artifacts."""
    users, matrix, names = read_nodes_csv(nodes_csv)
    index = {u: i for i, u in enumerate(users)}
    edges = read_edges_csv(edges_csv, index)
    return AttributedGraph(users, edges, matrix, names)
