"""Tests for the packet-level network emulator."""

from __future__ import annotations

import pytest

from repro.network.addressing import AddressError, format_address, parse_address
from repro.network.emulator import NetworkEmulator
from repro.network.links import DirectedLink, LinkDropped
from repro.network.packet import HEADER_BYTES, Packet
from repro.network.topology import dumbbell_topology, transit_stub_topology
from repro.runtime.engine import Simulator


def test_address_formatting_roundtrip():
    assert parse_address(format_address(167772161)) == 167772161
    with pytest.raises(AddressError):
        parse_address("1.2.3")
    with pytest.raises(AddressError):
        parse_address("1.2.3.999")
    with pytest.raises(AddressError):
        format_address(-1)


def test_attach_hosts_and_send_packet():
    simulator = Simulator(seed=1)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=1))
    a = emulator.attach_host()
    b = emulator.attach_host()
    received = []
    emulator.set_receive_callback(b.address, received.append)
    packet = Packet(src=a.address, dst=b.address, payload="hi", size=100)
    assert emulator.send(packet)
    simulator.run()
    assert len(received) == 1
    assert received[0].payload == "hi"
    assert received[0].hops >= 1
    assert emulator.stats.packets_delivered == 1
    # Delivery latency at least the propagation latency.
    assert simulator.now >= emulator.ip_latency(a.address, b.address)


def test_unknown_host_rejected():
    simulator = Simulator(seed=1)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=1))
    a = emulator.attach_host()
    with pytest.raises(AddressError):
        emulator.send(Packet(src=a.address, dst=999, payload=None, size=10))


def test_random_loss():
    simulator = Simulator(seed=2)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=2),
                               random_loss_rate=1.0)
    a = emulator.attach_host()
    b = emulator.attach_host()
    assert not emulator.send(Packet(src=a.address, dst=b.address, payload=None, size=10))
    assert emulator.stats.packets_dropped == 1
    with pytest.raises(ValueError):
        NetworkEmulator(simulator, transit_stub_topology(4, seed=2),
                        random_loss_rate=1.5)


def test_bottleneck_queue_drops_under_overload():
    simulator = Simulator(seed=3)
    topology = dumbbell_topology(clients_per_side=1, bottleneck_bandwidth=10_000.0)
    emulator = NetworkEmulator(simulator, topology, max_queue_delay=0.2)
    a = emulator.attach_host()
    b = emulator.attach_host(topology.clients[1])
    accepted = sum(
        1 for _ in range(200)
        if emulator.send(Packet(src=a.address, dst=b.address, payload=None, size=1400))
    )
    assert accepted < 200
    assert emulator.stats.packets_dropped > 0


def test_transmission_delay_scales_with_size():
    simulator = Simulator(seed=4)
    topology = dumbbell_topology(clients_per_side=1, bottleneck_bandwidth=125_000.0)
    emulator = NetworkEmulator(simulator, topology)
    a = emulator.attach_host(topology.clients[0])
    b = emulator.attach_host(topology.clients[1])
    arrival = {}
    emulator.set_receive_callback(b.address, lambda p: arrival.setdefault(p.packet_id, simulator.now))
    small = Packet(src=a.address, dst=b.address, payload=None, size=100)
    emulator.send(small)
    simulator.run()
    small_time = simulator.now
    big = Packet(src=a.address, dst=b.address, payload=None, size=10_000)
    start = simulator.now
    emulator.send(big)
    simulator.run()
    assert (simulator.now - start) > small_time * 1.5


def test_link_stress_accounting():
    simulator = Simulator(seed=5)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=5))
    a = emulator.attach_host()
    b = emulator.attach_host()
    for _ in range(3):
        emulator.send(Packet(src=a.address, dst=b.address, payload=None, size=10),
                      payload_tag="pkt-1")
    simulator.run()
    stresses = [view.max_stress for view in emulator.link_stats().values()]
    assert max(stresses) == 3


def test_directed_link_queue_and_drop():
    link = DirectedLink(src=0, dst=1, latency=0.01, bandwidth=1000.0,
                        max_queue_delay=0.15)
    first = link.transit_time(0.0, 100)
    assert first == pytest.approx(0.01 + 0.1)
    # Second packet queues behind the first (0.1 s backlog, still accepted).
    second = link.transit_time(0.0, 100)
    assert second > first
    # Third packet would see 0.2 s of backlog, beyond the queue bound.
    with pytest.raises(LinkDropped):
        link.transit_time(0.0, 100)
    assert link.stats.drops == 1
    assert link.stats.packets == 2


def test_packet_wire_size_and_retransmit_copy():
    packet = Packet(src=1, dst=2, payload="x", size=100)
    assert packet.wire_size == 100 + HEADER_BYTES
    clone = packet.copy_for_retransmit()
    assert clone.packet_id != packet.packet_id
    assert clone.size == packet.size
    with pytest.raises(ValueError):
        Packet(src=1, dst=2, payload=None, size=-5)


def test_attach_host_auto_allocation_skips_explicitly_used_slots():
    simulator = Simulator(seed=7)
    topology = transit_stub_topology(4, seed=7)
    emulator = NetworkEmulator(simulator, topology)
    taken = emulator.attach_host(topology.clients[1])
    autos = [emulator.attach_host() for _ in range(3)]
    assert taken.topology_node == topology.clients[1]
    assert [a.topology_node for a in autos] == [
        topology.clients[0], topology.clients[2], topology.clients[3]]
    # All slots used: further attaches reuse round-robin instead of failing.
    overflow = emulator.attach_host()
    assert overflow.topology_node in topology.clients


def test_send_reuses_cached_route_plan():
    simulator = Simulator(seed=8)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=8))
    a = emulator.attach_host()
    b = emulator.attach_host()
    received = []
    emulator.set_receive_callback(b.address, received.append)
    for _ in range(2):
        emulator.send(Packet(src=a.address, dst=b.address, payload=None, size=10))
    simulator.run()
    assert len(received) == 2
    # Both packets share the same (immutable) cached path tuple.
    assert received[0].path is received[1].path
    assert received[0].hops == len(received[0].path) - 1


def test_emulator_invalidate_drops_route_plans():
    from repro.network.topology import BANDWIDTH_ATTR, LATENCY_ATTR

    simulator = Simulator(seed=9)
    topology = transit_stub_topology(4, seed=9)
    emulator = NetworkEmulator(simulator, topology)
    a = emulator.attach_host()
    b = emulator.attach_host()
    before_path = emulator.ip_path(a.address, b.address)
    node_a = emulator._host(a.address).node
    node_b = emulator._host(b.address).node
    topology.graph.add_edge(node_a, node_b,
                            **{LATENCY_ATTR: 1e-6, BANDWIDTH_ATTR: 1e9})
    emulator.invalidate()
    after_path = emulator.ip_path(a.address, b.address)
    assert after_path == [node_a, node_b]
    assert after_path != before_path
    # The new edge got DirectedLink state and carries traffic.
    delivered = []
    emulator.set_receive_callback(b.address, delivered.append)
    assert emulator.send(Packet(src=a.address, dst=b.address, payload=None, size=10))
    simulator.run()
    assert len(delivered) == 1
    assert delivered[0].hops == 1


def test_router_level_invalidate_also_refreshes_emulator_routes():
    """router.invalidate() on an emulator-owned router must empty the one
    plan cache send() reads and give edges new to the graph their links."""
    from repro.network.topology import BANDWIDTH_ATTR, LATENCY_ATTR

    simulator = Simulator(seed=10)
    topology = transit_stub_topology(4, seed=10)
    emulator = NetworkEmulator(simulator, topology)
    a = emulator.attach_host()
    b = emulator.attach_host()
    node_a = emulator._host(a.address).node
    node_b = emulator._host(b.address).node
    # Warm the plan cache.
    assert emulator.send(Packet(src=a.address, dst=b.address, payload=None, size=10))
    assert (node_a, node_b) in emulator.router._plan_cache
    topology.graph.add_edge(node_a, node_b,
                            **{LATENCY_ATTR: 1e-6, BANDWIDTH_ATTR: 1e9})
    emulator.router.invalidate()  # router-level call, not emulator.invalidate()
    assert not emulator.router._plan_cache
    delivered = []
    emulator.set_receive_callback(b.address, delivered.append)
    second = Packet(src=a.address, dst=b.address, payload=None, size=10)
    assert emulator.send(second)
    simulator.run()
    assert second.hops == 1  # took the new direct edge, not the stale plan
    assert emulator.router._plan_cache[node_a, node_b].links == \
        (emulator._links[node_a, node_b],)


def test_send_inline_hop_loop_matches_try_transit():
    """send() inlines DirectedLink.try_transit; replaying the same hops
    through try_transit on a twin emulator must give bit-identical delays,
    queue state, and counters."""
    def build():
        simulator = Simulator(seed=11)
        emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=11))
        a = emulator.attach_host()
        b = emulator.attach_host()
        return simulator, emulator, a, b

    sim1, emu1, a1, b1 = build()
    sim2, emu2, a2, b2 = build()

    arrivals = []
    emu1.set_receive_callback(b1.address, lambda p: arrivals.append(sim1.now))
    packet = Packet(src=a1.address, dst=b1.address, payload=None, size=333)
    assert emu1.send(packet, payload_tag="twin")
    sim1.run()

    # Replay the identical hop sequence through try_transit on the twin.
    path = emu2.ip_path(a2.address, b2.address)
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        total += emu2._links[(u, v)].transit_time(0.0 + total, packet.wire_size,
                                                  "twin")
    assert arrivals == [total]
    for u, v in zip(path[:-1], path[1:]):
        link1, link2 = emu1._links[(u, v)], emu2._links[(u, v)]
        assert link1.next_free == link2.next_free
        assert (link1.packets, link1.bytes, link1.drops) == \
               (link2.packets, link2.bytes, link2.drops)
        assert link1.overlay_payloads == link2.overlay_payloads


def test_send_inline_drop_path_matches_try_transit():
    """Queue-overflow drops must happen at the same hop with the same
    counters in both the inline loop and try_transit."""
    from repro.network.topology import dumbbell_topology

    def build():
        simulator = Simulator(seed=12)
        topology = dumbbell_topology(clients_per_side=1,
                                     bottleneck_bandwidth=10_000.0)
        emulator = NetworkEmulator(simulator, topology, max_queue_delay=0.2)
        a = emulator.attach_host(topology.clients[0])
        b = emulator.attach_host(topology.clients[1])
        return simulator, emulator, a, b

    sim1, emu1, a1, b1 = build()
    sim2, emu2, a2, b2 = build()

    results1 = [emu1.send(Packet(src=a1.address, dst=b1.address,
                                 payload=None, size=1400))
                for _ in range(50)]

    path = emu2.ip_path(a2.address, b2.address)
    wire = 1400 + HEADER_BYTES
    results2 = []
    for _ in range(50):
        total = 0.0
        accepted = True
        for u, v in zip(path[:-1], path[1:]):
            try:
                total += emu2._links[(u, v)].transit_time(0.0 + total, wire)
            except LinkDropped:
                accepted = False
                break
        results2.append(accepted)
    assert results1 == results2
    assert False in results1  # the workload actually overflowed the queue
    for u, v in zip(path[:-1], path[1:]):
        link1, link2 = emu1._links[(u, v)], emu2._links[(u, v)]
        assert (link1.packets, link1.bytes, link1.drops) == \
               (link2.packets, link2.bytes, link2.drops)
        assert link1.next_free == link2.next_free
