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

from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .features import _is_internal, read_nodes_csv
from .ingest import EMAIL, EventTable, OrgDirectory, RejectReport, read_table, write_table

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
    """Immutable undirected simple graph plus an aligned attribute matrix.
    ``edges`` holds the pairs ``u < v`` in ascending order as a read-only
    ``(m, 2)`` int64 array, and ``adjacency_matrix()`` is built from them."""

    def __init__(
        self,
        user_ids: Sequence[str],
        edges: Iterable[tuple[int, int]] | np.ndarray,
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

        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        outside = (pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)
        bad = np.flatnonzero(outside | (u == v))
        if bad.size:
            i = bad[0]
            if outside[i]:
                raise ValueError(f"edge ({u[i]}, {v[i]}) out of range for {n} vertices")
            raise ValueError(f"self-loop at vertex {u[i]}")
        # the matrix collapses duplicate and reversed pairs
        self._matrix = np.zeros((n, n), dtype=bool)
        self._matrix[u, v] = self._matrix[v, u] = True
        self._matrix.flags.writeable = False
        self.edges: np.ndarray = np.argwhere(np.triu(self._matrix))
        self.edges.flags.writeable = False
        self._float_matrix: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.user_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return self._matrix.sum(axis=1, dtype=np.int64)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense read-only boolean adjacency."""
        return self._matrix

    def float_adjacency_matrix(self) -> np.ndarray:
        """Dense float64 adjacency for matrix products; cached after the
        first call, so eigenvector and betweenness centrality share one."""
        if self._float_matrix is None:
            self._float_matrix = self.adjacency_matrix().astype(np.float64)
        return self._float_matrix


def build_graph(
    directory: OrgDirectory,
    events: EventTable,
    attributes: np.ndarray,
    attribute_names: Sequence[str],
    *,
    internal_domain: str = "dtaa.com",
    rejects: RejectReport | None = None,
) -> AttributedGraph:
    """Assemble the graph from the directory and the email payload of
    ``events``, parsed activity logs; rows of other kinds carry none.

    ``attributes`` must be aligned with the directory users in sorted user-id
    order (the order produced by feature extraction).  A rejected email is
    numbered by its position among the email rows of ``events``, counting
    from 1, so the number does not depend on the other logs parsed with it.
    """
    if rejects is None:
        rejects = RejectReport()
    user_ids = directory.sorted_user_ids()
    index = {u: i for i, u in enumerate(user_ids)}
    address_book = directory.email_to_user()

    hierarchy: list[tuple[int, int]] = []
    for uid in user_ids:
        sup = directory.users[uid].supervisor
        if sup is None:
            continue
        if sup not in index:
            raise ValueError(f"user {uid!r} has supervisor {sup!r} outside the directory")
        if sup != uid:
            hierarchy.append((index[uid], index[sup]))

    def resolve(address: str) -> int:
        if not _is_internal(address, internal_domain):
            return _EXTERNAL  # attribute material only
        uid = address_book.get(address.lower())
        return _UNRESOLVED if uid is None else index[uid]

    # each distinct address is resolved once
    vertex = np.array([resolve(a) for a in events.addresses], np.int64)
    sender = vertex[events.sender]
    ends = events.recipient_ptr[::3]
    # each recipient's email, by position among the emails
    email = np.repeat(np.arange(len(sender)), np.diff(ends))
    recipient = vertex[events.recipients]
    bad = sender == _UNRESOLVED
    bad[email[recipient == _UNRESOLVED]] = True
    rows = np.flatnonzero(events.kind == EMAIL)  # for the event id of a rejected email
    for j in np.flatnonzero(bad).tolist():
        # the first unresolved address, in the order sender, to, cc, bcc
        codes = [events.sender[j], *events.recipients[ends[j]:ends[j + 1]].tolist()]
        address = next(events.addresses[c] for c in codes if vertex[c] == _UNRESOLVED)
        i = rows[j]
        event_id = events.ids[events.id_ptr[i]:events.id_ptr[i + 1]]
        rejects.add(
            "<email-events>",
            j + 1,
            f"event {event_id!r}: internal address {address!r} does not "
            f"resolve to a directory user",
            "unresolved address",
        )
    # an external sender anchors no edges
    s = sender[email]
    linked = ~bad[email] & (s >= 0) & (recipient >= 0) & (recipient != s)
    edges = np.concatenate([np.array(hierarchy, np.int64).reshape(-1, 2),
                            np.column_stack([s[linked], recipient[linked]])])
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
    names = graph.user_ids
    write_table(path, ("src", "dst"),
                sorted(tuple(sorted((names[u], names[v]))) for u, v in graph.edges.tolist()))


def read_edges_csv(path: str | Path, index: Mapping[str, int]) -> np.ndarray:
    """The ``(m, 2)`` vertex pairs of an edge table, in file order."""
    def vertex(user: str) -> int:
        if user not in index:
            raise ValueError(f"edge references unknown user {user!r}")
        return index[user]

    _, pairs = read_table(path, ("src", "dst"), lambda row: (vertex(row[0]), vertex(row[1])))
    return np.array(pairs, np.int64).reshape(-1, 2)


def load_graph(nodes_csv: str | Path, edges_csv: str | Path) -> AttributedGraph:
    """Rebuild a graph from the nodes table and edge list artifacts."""
    users, matrix, names = read_nodes_csv(nodes_csv)
    index = {u: i for i, u in enumerate(users)}
    edges = read_edges_csv(edges_csv, index)
    return AttributedGraph(users, edges, matrix, names)
