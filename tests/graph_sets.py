"""Neighbour sets, for tests that check a graph vertex by vertex.

The library holds a graph's edges once, as a sorted ``(m, 2)`` array
(``graph.edges``), plus the boolean adjacency matrix built from it.  Tests
that state a check with set operations build the sets here from the edges.
"""

from __future__ import annotations

__all__ = ["neighbour_sets"]


def neighbour_sets(graph) -> list[frozenset[int]]:
    """The neighbours of each vertex, indexed by vertex."""
    sets: list[set[int]] = [set() for _ in range(graph.n_vertices)]
    for u, v in graph.edges.tolist():
        sets[u].add(v)
        sets[v].add(u)
    return [frozenset(s) for s in sets]
