"""Tests for the packet-level network emulator."""

from __future__ import annotations

import pytest

from repro.network.addressing import AddressError, format_address, parse_address
from repro.network.emulator import NetworkEmulator
from repro.network.links import DirectedLink
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
    emulator.set_receive_callback(
        b.address, lambda p: arrival.setdefault(p.payload, simulator.now))
    emulator.send(Packet(src=a.address, dst=b.address, payload="small", size=100))
    simulator.run()
    start = simulator.now
    emulator.send(Packet(src=a.address, dst=b.address, payload="big", size=10_000))
    simulator.run()
    assert arrival["small"] > 0.0
    assert (arrival["big"] - start) > arrival["small"] * 1.5


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
    assert link.enqueue(0.0, 0.1) == 0.0
    # Second packet queues behind the first (0.1 s backlog, still accepted).
    assert link.enqueue(0.0, 0.1) == pytest.approx(0.1)
    assert link.next_free == pytest.approx(0.2)
    # Third packet would see 0.2 s of backlog, beyond the queue bound.
    assert link.enqueue(0.0, 0.1) < 0.0
    assert link.drops == 1
    assert link.next_free == pytest.approx(0.2)
    # Once the transmitter has drained, a packet starts where it arrives.
    assert link.enqueue(0.5, 0.1) == 0.0
    assert link.next_free == pytest.approx(0.6)


def test_packet_wire_size_and_retransmit_copy():
    packet = Packet(src=1, dst=2, payload="x", size=100)
    assert packet.wire_size == 100 + HEADER_BYTES
    packet.path = (1, 5, 2)
    # A retransmission is a fresh packet with the same payload, not yet routed.
    clone = Packet(src=packet.src, dst=packet.dst, payload=packet.payload,
                   size=packet.size)
    assert (clone.wire_size, clone.hops) == (packet.wire_size, 0)
    assert packet.hops == 2
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


def test_uplink_and_queue_points_go_through_the_one_link_method():
    """There is one queue formula, ``DirectedLink.enqueue``: ``send`` calls it
    for the uplink at the send instant, the packet's events for the narrow
    middle link and the downlink with the instant the packet reached them —
    and nothing else ever moves a link's ``next_free``."""
    simulator = Simulator(seed=12)
    topology = dumbbell_topology(clients_per_side=1,
                                 bottleneck_bandwidth=10_000.0)
    emulator = NetworkEmulator(simulator, topology, max_queue_delay=0.2)
    a = emulator.attach_host(topology.clients[0])
    b = emulator.attach_host(topology.clients[1])
    path = emulator.ip_path(a.address, b.address)
    hops = list(zip(path[:-1], path[1:]))
    assert len(hops) == 3
    calls = []
    inner = DirectedLink.enqueue

    def recording(link, arrival, transmission):
        wait = inner(link, arrival, transmission)
        calls.append(((link.src, link.dst), simulator.now, arrival, wait))
        return wait

    DirectedLink.enqueue = recording
    try:
        accepted = [emulator.send(Packet(src=a.address, dst=b.address,
                                         payload=None, size=1400),
                                  payload_tag="twin")
                    for _ in range(50)]
        assert all(accepted)            # the 1.25 MB/s uplink takes them all
        assert [key for key, *_ in calls] == [hops[0]] * 50
        assert all(now == 0.0 == arrival for _, now, arrival, _ in calls)
        simulator.run()
    finally:
        DirectedLink.enqueue = inner

    wire = 1400 + HEADER_BYTES
    by_link = {hop: [c for c in calls if c[0] == hop] for hop in hops}
    assert [len(by_link[hop]) for hop in hops] == [50, 50, 2]
    # The middle link (144 ms per packet, 200 ms of queue) keeps two packets.
    middle = emulator._links[hops[1]]
    assert middle.drops == 48 and emulator.stats.packets_dropped == 48
    assert emulator.stats.packets_delivered == 2
    for key, now, arrival, wait in by_link[hops[1]] + by_link[hops[2]]:
        link = emulator._links[key]
        # Evaluated inside the event at the link's far end, had it been idle.
        assert now == pytest.approx(arrival + wire / link.bandwidth
                                    + link.latency)
    arrivals = [arrival for _, _, arrival, _ in by_link[hops[1]]]
    assert arrivals == sorted(arrivals)
    # The queue state is exactly what those calls left behind.
    twin = {hop: DirectedLink(*hop, emulator._links[hop].latency,
                              emulator._links[hop].bandwidth,
                              max_queue_delay=0.2) for hop in hops}
    for key, _, arrival, wait in calls:
        assert twin[key].enqueue(arrival, wire / twin[key].bandwidth) == wait
    views = emulator.link_stats()
    for hop in hops:
        assert emulator._links[hop].next_free == twin[hop].next_free
        # Traffic counters: what the uplink admitted onto the plan.
        assert (views[hop].packets, views[hop].bytes, views[hop].max_stress) \
            == (50, 50 * wire, 50)
    assert [views[hop].drops for hop in hops] == [0, 48, 0]


def test_core_links_are_contention_free():
    """On a transit-stub underlay only the access links at the two ends
    queue: the links in between add their transmission and propagation
    delay and keep no state."""
    simulator = Simulator(seed=11)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=11))
    a = emulator.attach_host()
    b = emulator.attach_host()
    arrivals = []
    emulator.set_receive_callback(b.address, lambda p: arrivals.append(simulator.now))
    packet = Packet(src=a.address, dst=b.address, payload=None, size=333)
    for _ in range(3):
        assert emulator.send(Packet(src=a.address, dst=b.address,
                                    payload=None, size=333))
    simulator.run()
    path = emulator.ip_path(a.address, b.address)
    links = [emulator._links[hop] for hop in zip(path[:-1], path[1:])]
    assert len(links) > 2
    assert [link.next_free > 0.0 for link in links] == \
        [True] + [False] * (len(links) - 2) + [True]
    idle = sum(link.latency + packet.wire_size / link.bandwidth for link in links)
    access = packet.wire_size / links[0].bandwidth
    assert arrivals == pytest.approx([idle, idle + access, idle + 2 * access])
