"""Tests for topology generation and global routing."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from nx_oracle import to_networkx

from repro.network.router import Router, RoutingError
from repro.network.topology import (
    LATENCY_ATTR,
    ROLE_ATTR,
    TopologyError,
    dumbbell_topology,
    multi_site_topology,
    stub_domains,
    transit_stub_topology,
)


def test_transit_stub_basic_properties():
    topology = transit_stub_topology(30, seed=1)
    topology.validate()
    assert topology.num_clients == 30
    assert topology.num_routers > 10
    roles = {data["role"] for _, data in topology.graph.nodes.items()}
    assert roles == {"transit", "stub", "client"}


def test_transit_stub_deterministic_by_seed():
    a = transit_stub_topology(10, seed=5)
    b = transit_stub_topology(10, seed=5)
    c = transit_stub_topology(10, seed=6)
    edges = lambda t: sorted((u, v, round(d[LATENCY_ATTR], 9))
                             for u, v, d in t.graph.edges(data=True))
    assert edges(a) == edges(b)
    assert edges(a) != edges(c)


def test_transit_stub_rejects_bad_parameters():
    with pytest.raises(TopologyError):
        transit_stub_topology(0)
    with pytest.raises(TopologyError):
        transit_stub_topology(5, transit_routers=2)


def test_multi_site_topology_sites_and_latency_matrix():
    matrix = [[0, 10, 20], [10, 0, 30], [20, 30, 0]]
    topology = multi_site_topology([2, 3, 4], inter_site_latency_ms=matrix, seed=2)
    assert topology.num_clients == 9
    sites = set(topology.client_sites.values())
    assert sites == {0, 1, 2}
    with pytest.raises(TopologyError):
        multi_site_topology([2], seed=1)
    with pytest.raises(TopologyError):
        multi_site_topology([2, 2], inter_site_latency_ms=[[0]])


def test_multi_site_topology_rejects_a_ragged_latency_matrix():
    with pytest.raises(TopologyError, match="does not match"):
        multi_site_topology([2, 3, 4],
                            inter_site_latency_ms=[[0, 10, 20], [10, 0],
                                                   [20, 30, 0]])


def test_multi_site_topology_rejects_an_asymmetric_latency_matrix():
    with pytest.raises(TopologyError, match="asymmetric latency matrix at sites 0, 1"):
        multi_site_topology([2, 2], inter_site_latency_ms=[[0, 10], [99, 0]])


def test_dumbbell_topology():
    topology = dumbbell_topology(clients_per_side=3)
    assert topology.num_clients == 6
    assert topology.graph.has_edge(0, 1)


def test_stub_domains_are_stub_routers_only():
    topology = transit_stub_topology(48, seed=3)
    graph = topology.graph
    domains = stub_domains(topology)
    for domain in domains:
        for router in domain:
            assert graph.nodes[router][ROLE_ATTR] == "stub"
    # Every transit-stub client hangs off one of them.
    members = set().union(*domains)
    for client in topology.clients:
        assert members & set(graph.neighbors(client))


def test_stub_domains_partition_the_stub_routers_in_a_fixed_order():
    topology = transit_stub_topology(48, seed=3)
    domains = stub_domains(topology)
    stubs = {node for node, data in topology.graph.nodes.items()
             if data[ROLE_ATTR] == "stub"}
    assert sum(len(domain) for domain in domains) == len(stubs)
    assert set().union(*domains) == stubs
    assert [min(domain) for domain in domains] \
        == sorted(min(domain) for domain in domains)
    assert stub_domains(transit_stub_topology(48, seed=3)) == domains


def test_stub_domains_are_the_connected_stub_components():
    topology = transit_stub_topology(48, seed=3)
    graph = topology.graph
    domains = stub_domains(topology)
    domain_of = {router: index for index, domain in enumerate(domains)
                 for router in domain}
    for u, v in graph.edges():
        if u in domain_of and v in domain_of:
            assert domain_of[u] == domain_of[v]
    oracle = to_networkx(graph)
    for domain in domains:
        assert nx.is_connected(oracle.subgraph(domain))


def test_stub_domains_empty_without_stub_routers():
    assert stub_domains(multi_site_topology([4, 4, 4])) == []


def test_router_paths_and_latency():
    topology = transit_stub_topology(10, seed=3)
    router = Router(topology)
    a, b = topology.clients[0], topology.clients[5]
    path = router.path(a, b)
    assert path[0] == a and path[-1] == b
    assert router.hop_count(a, b) == len(path) - 1
    assert router.latency(a, b) > 0
    assert router.latency(a, a) == 0
    assert router.path(a, a) == [a]
    assert router.bottleneck_bandwidth(a, b) > 0


def test_router_latency_symmetric_on_undirected_graph():
    topology = transit_stub_topology(8, seed=4)
    router = Router(topology)
    a, b = topology.clients[1], topology.clients[6]
    assert router.latency(a, b) == pytest.approx(router.latency(b, a))


def test_router_unknown_destination():
    topology = transit_stub_topology(4, seed=5)
    router = Router(topology)
    with pytest.raises(RoutingError):
        router.path(topology.clients[0], 999999)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=5))
def test_topology_always_connected_and_annotated(num_clients, seed):
    topology = transit_stub_topology(num_clients, seed=seed)
    topology.validate()  # raises if disconnected or missing attributes
    assert topology.num_clients == num_clients


def test_router_dijkstra_matches_networkx_bit_for_bit():
    """The hand-rolled Dijkstra must replicate networkx exactly (distances,
    paths, and tie-breaking), which is what keeps fixed-seed experiment
    metrics identical across the fast-path rewrite.  The oracle is a copy
    with the same neighbour order, so ties are compared, not assumed."""
    for seed in range(3):
        topology = transit_stub_topology(20, seed=seed)
        router = Router(topology)
        oracle = to_networkx(topology.graph)
        for source in list(topology.graph.nodes)[::9]:
            dist_nx, paths_nx = nx.single_source_dijkstra(
                oracle, source, weight=LATENCY_ATTR)
            dist, _ = router._sssp(source)
            assert dist == dist_nx
            for target in topology.graph.nodes:
                if target != source:
                    assert router.path(source, target) == paths_nx[target]


def test_router_plan_is_cached_and_consistent():
    topology = transit_stub_topology(10, seed=7)
    router = Router(topology)
    a, b = topology.clients[0], topology.clients[7]
    plan = router.plan(a, b)
    assert router.plan(a, b) is plan  # cached object, not recomputed
    assert list(plan.path) == router.path(a, b)
    assert plan.hop_count == router.hop_count(a, b)
    assert plan.latency == router.latency(a, b)
    assert router.bottleneck_bandwidth(a, b) > 0


def test_router_invalidate_picks_up_topology_mutation():
    from repro.network.topology import BANDWIDTH_ATTR

    topology = transit_stub_topology(6, seed=8)
    router = Router(topology)
    a, b = topology.clients[0], topology.clients[5]
    before = router.path(a, b)
    assert len(before) > 2
    # Splice in a direct ultra-low-latency edge; without invalidate() the
    # cached plan must keep answering, with it the new edge must win.
    topology.graph.add_edge(a, b, **{LATENCY_ATTR: 1e-6, BANDWIDTH_ATTR: 1e9})
    assert router.path(a, b) == before
    router.invalidate()
    assert router.path(a, b) == [a, b]
