"""Copies between a topology :class:`Graph` and a ``networkx.Graph``, for the
tests that use networkx as the oracle.

The router breaks Dijkstra ties by neighbour order and the emulator builds
its links in ``edges()`` order, so an oracle built in a different order could
let a tie-breaking difference pass unseen.  :func:`copy_into` replays the
edges in an order that gives every node its original neighbour order, and
asserts that the copy's nodes, neighbours and edges come out in the source's
order: the comparison is made, not assumed.
"""

from __future__ import annotations

from graphlib import TopologicalSorter

import networkx as nx

from repro.network.topology import Graph


def assert_same_order(a, b) -> None:
    """Same nodes, neighbour lists and ``edges(data=True)``, all in order."""
    assert list(a) == list(b)
    for node in a:
        assert list(a.adj[node].items()) == list(b.adj[node].items()), node
    assert list(a.edges(data=True)) == list(b.edges(data=True))


def copy_into(target, source):
    """Replay *source* into the empty *target* (either graph type).

    Node ``u`` lists ``v`` before ``w`` when edge ``u-v`` was added before
    ``u-w``, so each node's neighbour list is a chain of "added before"
    constraints; any order of the edges that meets them all gives the copy
    the same neighbour lists.
    """
    for node, attrs in source.nodes.items():
        target.add_node(node, **attrs)
    before = TopologicalSorter()
    for u, neighbours in source.adj.items():
        edges = [(min(u, v), max(u, v)) for v in neighbours]
        for index, edge in enumerate(edges):
            before.add(edge, *edges[index - 1:index])
    for u, v in before.static_order():
        target.add_edge(u, v, **source.adj[u][v])
    assert_same_order(source, target)
    return target


def to_networkx(graph: Graph) -> nx.Graph:
    return copy_into(nx.Graph(), graph)


def from_networkx(graph: nx.Graph) -> Graph:
    return copy_into(Graph(), graph)
