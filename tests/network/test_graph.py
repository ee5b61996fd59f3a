"""The topology :class:`Graph` against ``networkx.Graph`` as the oracle.

Order is the contract: the router's Dijkstra breaks ties by neighbour order
and the emulator builds its links in ``edges()`` order, so for the same calls
``Graph`` must give networkx's node, neighbour and edge order, or every
pinned fingerprint and bench count would move.
"""

from __future__ import annotations

import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from nx_oracle import assert_same_order, from_networkx, to_networkx

from repro.network.topology import (BANDWIDTH_ATTR, LATENCY_ATTR, ROLE_ATTR,
                                    Graph, Topology, TopologyError,
                                    multi_site_topology, stub_domains,
                                    transit_stub_topology)

#: One call: add_node(a) or add_edge(a, b), with an attribute value; nodes
#: and edges repeat, so updates of existing ones are replayed too.
calls = st.lists(st.tuples(st.booleans(), st.integers(0, 15),
                           st.integers(0, 15), st.integers(0, 3)),
                 max_size=60)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(calls=calls)
def test_the_same_calls_give_networkx_order(calls):
    ours, oracle = Graph(), nx.Graph()
    for is_edge, a, b, value in calls:
        for graph in (ours, oracle):
            if is_edge:
                graph.add_edge(a, b, **{LATENCY_ATTR: value})
            else:
                graph.add_node(a, **{ROLE_ATTR: value})
    assert_same_order(ours, oracle)
    assert list(ours.edges()) == list(oracle.edges())
    assert dict(ours.nodes.items()) == dict(oracle.nodes(data=True))
    assert len(ours) == len(oracle)
    for a in range(16):
        assert (a in ours) == (a in oracle)
        if a in ours:
            assert list(ours.neighbors(a)) == list(oracle.neighbors(a))
        for b in range(16):
            assert ours.has_edge(a, b) == oracle.has_edge(a, b)


def test_a_write_through_one_end_is_seen_through_the_other():
    graph = transit_stub_topology(12, seed=2).graph
    for u, v, data in graph.edges(data=True):
        assert graph[u][v] is data is graph[v][u]
    u, v = next(graph.edges())
    graph[u][v][BANDWIDTH_ATTR] = 7.0
    assert graph[v][u][BANDWIDTH_ATTR] == 7.0


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_networkx_bridges_read_a_graph_as_they_read_the_oracle(seed):
    """``bench/workloads.py``'s ``emulator_flap`` passes ``topology.graph`` to
    ``networkx.bridges`` and cuts only the edges it does not return."""
    graph = transit_stub_topology(240, seed=seed).graph
    bridges = list(nx.bridges(graph))
    assert bridges == list(nx.bridges(to_networkx(graph)))
    assert len(bridges) >= 240       # every client access link is one


def test_validate_refuses_a_disconnected_graph():
    graph = Graph()
    graph.add_edge(0, 1, **{LATENCY_ATTR: 0.01, BANDWIDTH_ATTR: 1e6})
    graph.add_edge(2, 3, **{LATENCY_ATTR: 0.01, BANDWIDTH_ATTR: 1e6})
    with pytest.raises(TopologyError, match="not connected"):
        Topology(graph=graph, clients=[0, 2]).validate()
    graph.add_edge(1, 2, **{LATENCY_ATTR: 0.01, BANDWIDTH_ATTR: 1e6})
    Topology(graph=graph, clients=[0, 2]).validate()
    with pytest.raises(TopologyError, match="not connected"):
        Topology(graph=Graph(), clients=[]).validate()


@pytest.mark.parametrize("clients, seed", [(48, 3), (30, 1), (240, 1)])
def test_stub_domains_are_the_oracles_connected_components(clients, seed):
    topology = transit_stub_topology(clients, seed=seed)
    oracle = to_networkx(topology.graph)
    stubs = [node for node, role in oracle.nodes(data=ROLE_ATTR)
             if role == "stub"]
    expected = sorted(sorted(component) for component
                      in nx.connected_components(oracle.subgraph(stubs)))
    assert stub_domains(topology) == [frozenset(c) for c in expected]


def test_components_of_an_induced_subgraph():
    oracle = nx.gnm_random_graph(40, 45, seed=5)
    oracle.add_node(40)                     # isolated
    within = random.Random(5).sample(range(40), 24) + [40]
    expected = sorted(sorted(component) for component
                      in nx.connected_components(oracle.subgraph(within)))
    assert sorted(sorted(component) for component
                  in from_networkx(oracle).components(within)) == expected


def test_a_topology_pickles_with_its_shared_edge_dicts():
    """Forked seed workers and live configs carry a Topology."""
    topology = multi_site_topology([2, 3], seed=4)
    copy = pickle.loads(pickle.dumps(topology))
    assert_same_order(copy.graph, topology.graph)
    assert copy.clients == topology.clients
    assert copy.client_sites == topology.client_sites
    u, v = next(iter(copy.graph.edges()))
    assert copy.graph[u][v] is copy.graph[v][u]
