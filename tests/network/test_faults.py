"""Tests for the emulator/router fault hooks the scenario engine drives."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.network.emulator import NetworkEmulator
from repro.network.packet import Packet
from repro.network.router import Router, RoutingError
from repro.network.topology import (BANDWIDTH_ATTR, LATENCY_ATTR, ROLE_ATTR,
                                    Graph, Topology, TopologyError,
                                    transit_stub_topology)
from repro.runtime.engine import Simulator


def build(num_hosts: int = 4, seed: int = 1):
    simulator = Simulator(seed=seed)
    emulator = NetworkEmulator(simulator, transit_stub_topology(num_hosts, seed=seed))
    addresses = [emulator.attach_host().address for _ in range(num_hosts)]
    return simulator, emulator, addresses


# ------------------------------------------------------------- detach/reattach
def test_detach_host_drops_instead_of_raising():
    simulator, emulator, (a, b, *_) = build()
    emulator.detach_host(b)
    assert not emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    assert not emulator.send(Packet(src=b, dst=a, payload=None, size=10))
    assert emulator.stats.packets_dropped == 2
    # Reattach restores normal delivery.
    emulator.reattach_host(b)
    received = []
    emulator.set_receive_callback(b, received.append)
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    simulator.run()
    assert len(received) == 1


def test_detach_mid_flight_drops_at_delivery():
    simulator, emulator, (a, b, *_) = build()
    received = []
    emulator.set_receive_callback(b, received.append)
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    emulator.detach_host(b)  # after send, before delivery
    simulator.run()
    assert received == []
    assert emulator.stats.packets_dropped == 1


def test_detach_and_reattach_are_idempotent():
    _, emulator, (a, *_) = build()
    emulator.detach_host(a)
    emulator.detach_host(a)
    assert emulator._detached_count == 1
    emulator.reattach_host(a)
    emulator.reattach_host(a)
    assert emulator._detached_count == 0
    assert not emulator._faults_active


# ------------------------------------------------------------------- partitions
def test_host_partition_blocks_cross_group_traffic_only():
    simulator, emulator, (a, b, c, d) = build()
    delivered = []
    for address in (a, b, c, d):
        emulator.set_receive_callback(address, delivered.append)
    emulator.partition_hosts([[a, b], [c, d]])
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))      # same side
    assert not emulator.send(Packet(src=a, dst=c, payload=None, size=10))  # across
    assert not emulator.send(Packet(src=d, dst=b, payload=None, size=10))  # across
    emulator.heal_partition()
    assert emulator.send(Packet(src=a, dst=c, payload=None, size=10))
    simulator.run()
    assert len(delivered) == 2


def test_single_group_partition_isolates_its_members():
    simulator, emulator, (a, b, c, d) = build()
    emulator.partition_hosts([[c, d]])
    assert emulator.send(Packet(src=c, dst=d, payload=None, size=10))       # inside
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))       # outside
    assert not emulator.send(Packet(src=a, dst=c, payload=None, size=10))   # across
    assert not emulator.send(Packet(src=d, dst=b, payload=None, size=10))   # across
    simulator.run()


# -------------------------------------------------------------------- link cuts
def test_disable_link_reroutes_and_enable_restores():
    simulator, emulator, (a, b, *_) = build(num_hosts=6, seed=2)
    before = emulator.ip_path(a, b)
    assert len(before) > 2
    # Cut an interior edge of the current path: traffic routes around it.
    u, v = before[1], before[2]
    emulator.disable_link(u, v)
    after = emulator.ip_path(a, b)
    assert (u, v) not in zip(after[:-1], after[1:])
    assert (v, u) not in zip(after[:-1], after[1:])
    assert not emulator._links[(u, v)].enabled
    received = []
    emulator.set_receive_callback(b, received.append)
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    simulator.run()
    assert len(received) == 1
    assert list(received[0].path) == after
    # Healing restores the original shortest path.
    emulator.enable_link(u, v)
    assert emulator.ip_path(a, b) == before
    assert emulator._links[(u, v)].enabled


def warm_two_pairs():
    """An emulator with plans a->b and c->d warm, and an edge of the a->b
    path that has a detour and that c->d does not use."""
    simulator, emulator, addresses = build(num_hosts=6, seed=3)
    a, b, c, d = addresses[:4]
    emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    emulator.send(Packet(src=c, dst=d, payload=None, size=10))
    path_ab = emulator.ip_path(a, b)
    path_cd = emulator.ip_path(c, d)
    edges_cd = set(zip(path_cd[:-1], path_cd[1:])) | set(zip(path_cd[1:], path_cd[:-1]))
    bridges = set(nx.bridges(emulator.topology.graph))
    edge = next((u, v) for u, v in zip(path_ab[:-1], path_ab[1:])
                if (u, v) not in edges_cd
                and (u, v) not in bridges and (v, u) not in bridges)
    key_ab = (path_ab[0], path_ab[-1])
    key_cd = (path_cd[0], path_cd[-1])
    plans = emulator.router._plan_cache
    assert key_ab in plans and key_cd in plans
    return simulator, emulator, (a, b), key_ab, key_cd, edge


def forbid_full_invalidation(emulator, monkeypatch):
    def fail():
        raise AssertionError("Router.invalidate() called by a fault hook")
    monkeypatch.setattr(emulator.router, "invalidate", fail)


def test_disable_link_invalidation_is_targeted():
    simulator, emulator, _, key_ab, key_cd, edge = warm_two_pairs()
    plans = emulator.router._plan_cache
    emulator.disable_link(*edge)
    assert key_cd in plans                       # targeted: survivor kept
    assert key_ab not in plans                   # traversing plan pruned
    simulator.run()


@pytest.mark.parametrize("fault, undo", [
    (lambda emulator, edge: emulator.disable_link(*edge),
     lambda emulator, edge: emulator.enable_link(*edge)),
    (lambda emulator, edge: emulator.degrade_edge(*edge, latency_factor=1000.0),
     lambda emulator, edge: emulator.restore_edge(*edge)),
], ids=["enable_link", "restore_edge"])
def test_undoing_a_link_fault_is_targeted(fault, undo, monkeypatch):
    simulator, emulator, (a, b), key_ab, key_cd, edge = warm_two_pairs()
    forbid_full_invalidation(emulator, monkeypatch)
    plans = emulator.router._plan_cache
    original = emulator.ip_path(a, b)
    fault(emulator, edge)
    untouched = plans[key_cd]
    assert emulator.ip_path(a, b) != original    # detour while the fault lasts
    undo(emulator, edge)
    assert plans[key_cd] is untouched            # same object: never rebuilt
    assert key_ab not in plans                   # the undo can shorten it
    assert emulator.ip_path(a, b) == original    # and it re-plans to the original
    simulator.run()


def test_bandwidth_only_degrade_and_restore_drop_the_stale_bottleneck(monkeypatch):
    _, emulator, (a, b), _, _, edge = warm_two_pairs()
    forbid_full_invalidation(emulator, monkeypatch)
    original = emulator.ip_path(a, b)
    healthy = emulator.bottleneck_bandwidth(a, b)
    emulator.degrade_edge(*edge, bandwidth_factor=1e-6)
    assert emulator.bottleneck_bandwidth(a, b) == pytest.approx(
        emulator._links[edge].bandwidth)
    emulator.restore_edge(*edge)                 # the weight does not change
    assert emulator.bottleneck_bandwidth(a, b) == healthy
    assert emulator.ip_path(a, b) == original


def test_cutting_the_only_path_drops_packets():
    simulator, emulator, (a, *_) = build()
    # A client's single access link is its only way out.
    client_node = emulator._host(a).node
    (stub,) = list(emulator.topology.graph.neighbors(client_node))
    emulator.disable_link(client_node, stub)
    other = emulator.hosts[1].address
    assert not emulator.send(Packet(src=a, dst=other, payload=None, size=10))
    assert emulator.stats.packets_dropped == 1
    with pytest.raises(RoutingError):
        emulator.ip_path(a, other)
    emulator.enable_link(client_node, stub)
    assert emulator.send(Packet(src=a, dst=other, payload=None, size=10))


def test_disable_unknown_edge_raises():
    _, emulator, _ = build()
    with pytest.raises(RoutingError):
        emulator.disable_link(10_000, 10_001)


# --------------------------------------------------------------- attach errors
def test_attach_on_clientless_topology_raises_actionable_error():
    graph = Graph()
    graph.add_node(0, **{ROLE_ATTR: "transit"})
    graph.add_node(1, **{ROLE_ATTR: "transit"})
    graph.add_edge(0, 1, **{LATENCY_ATTR: 0.01, BANDWIDTH_ATTR: 1e6})
    topology = Topology(graph=graph, clients=[], name="no-clients")
    emulator = NetworkEmulator(Simulator(seed=1), topology)
    with pytest.raises(TopologyError, match="no-clients"):
        emulator.attach_host()


def test_fault_free_hot_path_is_unchanged():
    """With no faults ever injected, the fault branch must never fire and
    stats must match a pre-fault-hook run exactly (same counters)."""
    simulator, emulator, (a, b, *_) = build()
    assert not emulator._faults_active
    for _ in range(5):
        emulator.send(Packet(src=a, dst=b, payload=None, size=50))
    simulator.run()
    assert emulator.stats.packets_sent == 5
    assert emulator.stats.packets_delivered == 5
    assert emulator.stats.packets_dropped == 0


# ----------------------------------------------------------- directed link cuts
def test_directed_cut_blocks_one_direction_only():
    simulator, emulator, (a, b, *_) = build()
    path = emulator.ip_path(a, b)
    u, v = path[0], path[1]
    emulator.disable_link_direction(u, v)
    received = []
    for address in (a, b):
        emulator.set_receive_callback(address, received.append)
    assert not emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    assert emulator.send(Packet(src=b, dst=a, payload=None, size=10))
    simulator.run()
    assert len(received) == 1
    assert emulator.stats.packets_dropped == 1
    emulator.enable_link_direction(u, v)
    assert not emulator._faults_active
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    simulator.run()
    assert len(received) == 2


def test_directed_cut_is_idempotent_and_validated():
    _, emulator, _ = build()
    with pytest.raises(RoutingError):
        emulator.disable_link_direction(10_000, 10_001)
    graph = emulator.topology.graph
    u, v = next(iter(graph.edges()))
    emulator.disable_link_direction(u, v)
    emulator.disable_link_direction(u, v)
    assert emulator._directed_cuts == {(u, v)}
    emulator.enable_link_direction(u, v)
    emulator.enable_link_direction(u, v)
    assert not emulator._directed_cuts
    assert not emulator._faults_active


def test_full_cut_and_heal_keeps_a_one_way_blackhole_down():
    """disable_link_direction -> disable_link -> enable_link must not heal
    the direction that is still in _directed_cuts."""
    simulator, emulator, (a, b, *_) = build()
    path = emulator.ip_path(a, b)
    u, v = path[0], path[1]
    emulator.disable_link_direction(u, v)
    assert not emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    emulator.disable_link(u, v)
    emulator.enable_link(u, v)
    assert emulator._directed_cuts == {(u, v)}
    assert not emulator._links[(u, v)].enabled
    assert emulator._links[(v, u)].enabled
    assert not emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    assert emulator.send(Packet(src=b, dst=a, payload=None, size=10))
    emulator.enable_link_direction(u, v)
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    simulator.run()


def test_healing_a_direction_keeps_a_fully_cut_edge_down():
    """disable_link_direction -> disable_link -> enable_link_direction must
    leave both links down until the undirected cut heals too."""
    simulator, emulator, (a, b, *_) = build()
    path = emulator.ip_path(a, b)
    u, v = path[0], path[1]
    emulator.disable_link_direction(u, v)
    emulator.disable_link(u, v)
    emulator.enable_link_direction(u, v)
    assert not emulator._directed_cuts
    assert not emulator._links[(u, v)].enabled
    assert not emulator._links[(v, u)].enabled
    assert not emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    emulator.enable_link(u, v)
    assert emulator._links[(u, v)].enabled and emulator._links[(v, u)].enabled
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    simulator.run()


# ------------------------------------------------------------ edge degradation
def test_degrade_edge_restores_byte_identical_weights():
    _, emulator, (a, b, *_) = build()
    path = emulator.ip_path(a, b)
    u, v = path[0], path[1]
    link = emulator._links[(u, v)]
    original_latency = link.latency
    original_bandwidth = link.bandwidth
    emulator.degrade_edge(u, v, bandwidth_factor=0.25, latency_factor=3.0)
    assert link.latency == original_latency * 3.0
    assert link.bandwidth == original_bandwidth * 0.25
    assert link.degraded
    # Degrading again recomputes from the base, never compounds.
    emulator.degrade_edge(u, v, bandwidth_factor=0.5, latency_factor=2.0)
    assert link.latency == original_latency * 2.0
    emulator.restore_edge(u, v)
    assert link.latency == original_latency
    assert link.bandwidth == original_bandwidth
    assert not link.degraded
    assert not emulator._faults_active


def test_degrade_edge_reroutes_around_slow_edge():
    simulator, emulator, (a, b, *_) = build(num_hosts=6, seed=2)
    before = emulator.ip_path(a, b)
    u, v = before[1], before[2]
    # Make the edge so slow the router prefers any detour.
    emulator.degrade_edge(u, v, latency_factor=1000.0)
    after = emulator.ip_path(a, b)
    assert (u, v) not in zip(after[:-1], after[1:])
    assert (v, u) not in zip(after[:-1], after[1:])
    emulator.restore_edge(u, v)
    assert emulator.ip_path(a, b) == before


def test_degrade_edge_invalidation_is_targeted():
    simulator, emulator, _, key_ab, key_cd, edge = warm_two_pairs()
    plans = emulator.router._plan_cache
    emulator.degrade_edge(*edge, latency_factor=5.0)
    assert key_cd in plans                       # targeted: survivor kept
    assert key_ab not in plans                   # traversing plan pruned
    simulator.run()


def test_degrade_edge_validates_factors():
    _, emulator, _ = build()
    graph = emulator.topology.graph
    u, v = next(iter(graph.edges()))
    with pytest.raises(ValueError):
        emulator.degrade_edge(u, v, bandwidth_factor=0.0)
    with pytest.raises(ValueError):
        emulator.degrade_edge(u, v, bandwidth_factor=1.5)
    with pytest.raises(ValueError):
        emulator.degrade_edge(u, v, latency_factor=0.5)
    with pytest.raises(RoutingError):
        emulator.degrade_edge(10_000, 10_001, latency_factor=2.0)


def test_degrade_host_slows_access_links_and_restores():
    simulator, emulator, (a, b, *_) = build()
    client_node = emulator._host(a).node
    access = [(client_node, nbr)
              for nbr in emulator.topology.graph.neighbors(client_node)]
    originals = {edge: emulator._links[edge].latency for edge in access}
    emulator.degrade_host(a, latency_factor=4.0)
    for edge, latency in originals.items():
        assert emulator._links[edge].latency == latency * 4.0
    received = []
    emulator.set_receive_callback(b, received.append)
    assert emulator.send(Packet(src=a, dst=b, payload=None, size=10))
    simulator.run()
    assert len(received) == 1
    emulator.restore_host(a)
    for edge, latency in originals.items():
        assert emulator._links[edge].latency == latency
    assert not emulator._faults_active


def two_hosts_on_one_router():
    """More hosts than client slots: the fifth reuses the first's router."""
    _, emulator, (a, _, c, _) = build()
    b = emulator.attach_host().address
    assert emulator._host(a).node == emulator._host(b).node
    return emulator, a, b, c


def test_restore_host_keeps_a_co_located_host_degraded():
    emulator, a, b, c = two_hosts_on_one_router()
    healthy = emulator.ip_latency(b, c)
    emulator.degrade_host(a, latency_factor=4.0)
    emulator.degrade_host(b, latency_factor=4.0)
    degraded = emulator.ip_latency(b, c)
    assert degraded > healthy
    emulator.restore_host(a)
    assert b in emulator._degraded_hosts
    assert emulator.ip_latency(b, c) == degraded     # b is still slow
    emulator.restore_host(a)                         # idempotent
    assert emulator.ip_latency(b, c) == degraded
    emulator.restore_host(b)
    assert emulator.ip_latency(b, c) == healthy
    assert not emulator._degraded_edges and not emulator._degraded_hosts


@pytest.mark.parametrize("first, second", [(2.0, 4.0), (4.0, 2.0)])
def test_co_located_hosts_with_different_factors(first, second):
    """The shared access edges carry the factors of whichever degraded host
    is left, and every plan follows them — also when that makes them faster."""
    emulator, a, b, c = two_hosts_on_one_router()
    node = emulator._host(a).node
    access = [(node, nbr) for nbr in emulator.topology.graph.neighbors(node)]
    base = {edge: emulator._links[edge].latency for edge in access}

    def check(factor):
        for edge, latency in base.items():
            assert emulator._links[edge].latency == latency * factor
            assert emulator._links[edge].bandwidth == \
                emulator._links[edge].base_bandwidth / factor
        for src, dst in ((a, c), (c, b)):
            src, dst = emulator._host(src).node, emulator._host(dst).node
            fresh = Router(emulator.topology).plan(src, dst)
            plan = emulator.router.plan(src, dst)
            assert (plan.path, plan.latency) == (fresh.path, fresh.latency)
            assert emulator.router.bottleneck_bandwidth(src, dst) == min(
                emulator.topology.graph[u][v][BANDWIDTH_ATTR]
                for u, v in plan.edges)

    check(1.0)
    emulator.degrade_host(a, latency_factor=first, bandwidth_factor=1 / first)
    check(first)
    emulator.degrade_host(b, latency_factor=second, bandwidth_factor=1 / second)
    check(second)                  # the most recent degrade wins
    emulator.restore_host(b)
    check(first)                   # a's own factors, not b's and not healthy
    emulator.restore_host(a)
    check(1.0)
    assert not emulator._degraded_edges


def test_re_degrading_an_edge_by_a_smaller_factor_shortens_routes_again():
    _, emulator, (a, b, *_) = build(num_hosts=6, seed=2)
    before = emulator.ip_path(a, b)
    u, v = before[1], before[2]
    emulator.degrade_edge(u, v, latency_factor=1000.0)
    assert emulator.ip_path(a, b) != before
    emulator.degrade_edge(u, v, latency_factor=1.0, bandwidth_factor=0.5)
    assert emulator.ip_path(a, b) == before


def test_enable_unknown_edge_raises_and_an_uncut_edge_is_a_no_op(monkeypatch):
    _, emulator, (a, b, *_) = build()
    with pytest.raises(RoutingError):
        emulator.enable_link(10_000, 10_001)
    with pytest.raises(RoutingError):
        emulator.router.enable_edge(10_000, 10_001)
    path = emulator.ip_path(a, b)
    plans = dict(emulator.router._plan_cache)
    forbid_full_invalidation(emulator, monkeypatch)
    emulator.enable_link(path[0], path[1])           # real edge, never cut
    assert emulator.router._plan_cache == plans
    assert not emulator.router.disabled_edges()
    assert not emulator.router.edge_disabled(path[0], path[1])


def test_healing_a_direction_asks_the_router_about_one_edge(monkeypatch):
    _, emulator, (a, b, *_) = build()
    u, v = emulator.ip_path(a, b)[:2]
    emulator.disable_link_direction(u, v)
    monkeypatch.setattr(emulator.router, "disabled_edges", None)
    emulator.enable_link_direction(u, v)
    assert emulator._links[(u, v)].enabled
