"""The one causal link physics, checked without any protocol on top.

Three things a hop-by-hop emulator owes its users (ROADMAP, "One causal link
physics"): idle links neither delay nor drop, a loaded bottleneck queues by
``backlog / bandwidth`` and drops only once ``max_queue_delay`` of backlog
stands in front of it, and no queue serves two packets at once or lets one
wait behind a packet that is not there yet.
"""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.network.emulator import NetworkEmulator
from repro.network.links import DirectedLink
from repro.network.packet import HEADER_BYTES, Packet
from repro.network.topology import (BANDWIDTH_ATTR, LATENCY_ATTR, ROLE_ATTR,
                                    Topology, dumbbell_topology,
                                    transit_stub_topology)
from repro.runtime.engine import Simulator


def test_idle_links_neither_delay_nor_drop():
    """The protocol-free probe of ROADMAP's finding: 400 hosts, each sending
    Poisson 22 pkt/s (Chord's measured maintenance rate) of 20 B to uniformly
    random hosts for 30 s.  The busiest link is under 0.01 % utilised, so
    every packet must arrive, within a millisecond of its propagation time
    (the parent dropped 25 % and delayed the median by 464 ms)."""
    simulator = Simulator(seed=1)
    emulator = NetworkEmulator(simulator, transit_stub_topology(400, seed=1))
    addresses = [emulator.attach_host().address for _ in range(400)]
    extra: list[float] = []

    def on_receive(packet: Packet) -> None:
        extra.append(simulator.now - packet.created_at
                     - emulator.ip_latency(packet.src, packet.dst))

    for address in addresses:
        emulator.set_receive_callback(address, on_receive)
    rng = random.Random(1)
    ticks = [0]

    def tick(src: int) -> None:
        ticks[0] += 1
        dst = rng.choice(addresses)
        if dst != src:
            emulator.send(Packet(src, dst, None, 20))
        simulator.schedule(rng.expovariate(22.0), tick, src)

    for address in addresses:
        simulator.schedule(rng.expovariate(22.0), tick, address)
    simulator.run(until=30.0)

    stats = emulator.stats
    assert stats.packets_sent > 250_000
    assert stats.packets_dropped == 0
    extra.sort()
    assert extra[0] > 0.0
    assert extra[int(0.99 * len(extra))] < 1e-3
    assert sum(view.drops for view in emulator.link_stats().values()) == 0
    # One event per packet; a second one only where a downlink was busy.
    waits = simulator.events_processed - ticks[0] - stats.packets_delivered
    assert 0 <= waits <= stats.packets_sent // 200


def test_overloaded_bottleneck_queues_by_backlog_and_drops_at_the_tail():
    """A dumbbell whose middle link is offered 120 % of its bandwidth: the
    queueing delay a packet sees is the backlog in front of it divided by the
    bandwidth, and the first drop comes only once that backlog has grown to
    ``max_queue_delay``."""
    bandwidth, size, max_queue_delay = 125_000.0, 1_000, 0.5
    wire = size + HEADER_BYTES
    simulator = Simulator(seed=3)
    topology = dumbbell_topology(clients_per_side=2,
                                 bottleneck_bandwidth=bandwidth)
    emulator = NetworkEmulator(simulator, topology,
                               max_queue_delay=max_queue_delay)
    left = [emulator.attach_host(node).address for node in topology.clients[:2]]
    right = [emulator.attach_host(node).address for node in topology.clients[2:]]
    idle = emulator.ip_latency(left[0], right[0]) + wire * (
        2 / 1_250_000.0 + 1 / bandwidth)
    gap = wire / (1.2 * bandwidth)           # 120 % of the middle link
    count = int(6.0 / gap)
    queued: dict[int, float] = {}

    def on_receive(packet: Packet) -> None:
        queued[packet.payload] = simulator.now - packet.created_at - idle

    for address in right:
        emulator.set_receive_callback(address, on_receive)
    # Two senders to two receivers, alternating, so that neither an uplink
    # nor a downlink (1.25 MB/s each, 60 % loaded) is the bottleneck.
    for index in range(count):
        simulator.schedule_at(
            index * gap, lambda index=index: emulator.send(
                Packet(left[index % 2], right[index % 2], index, size)))
    simulator.run()

    middle = emulator.link_stats()[(0, 1)]
    dropped = sorted(set(range(count)) - set(queued))
    assert dropped and middle.drops == len(dropped)
    assert emulator.stats.packets_dropped == len(dropped)
    # Backlog grows at 20 % of the arrival rate: packet i finds i * (tx - gap)
    # seconds of it (minus what the access links' own pacing absorbs, < 1 tx).
    transmission = wire / bandwidth
    for index in range(50, dropped[0], 25):
        backlog = index * (transmission - gap)
        assert abs(queued[index] - backlog) <= 0.1 * backlog
    # Drop-tail: nothing is lost before max_queue_delay of backlog stands in
    # the queue, and from then on the queue stays within one packet of full.
    first = dropped[0]
    assert first * (transmission - gap) >= max_queue_delay - transmission
    assert max(queued.values()) <= max_queue_delay + 2 * transmission
    late = [queued[i] for i in range(first, count) if i in queued]
    assert min(late) >= max_queue_delay - 3 * transmission


# --------------------------------------------------------------- property (c)
def _random_topology(rng: random.Random, routers: int, clients: int,
                     narrow_middle: bool) -> Topology:
    """A random connected router graph with client leaves; access links are
    slow, router links fast — except, optionally, one narrow bridge."""
    graph = nx.Graph()
    for node in range(routers):
        graph.add_node(node, **{ROLE_ATTR: "transit"})
        if node:
            graph.add_edge(node, rng.randrange(node), **{
                LATENCY_ATTR: rng.uniform(0.001, 0.02),
                BANDWIDTH_ATTR: 1e8})
    for _ in range(routers // 2):
        u, v = rng.sample(range(routers), 2) if routers > 1 else (0, 0)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, **{LATENCY_ATTR: rng.uniform(0.001, 0.02),
                                    BANDWIDTH_ATTR: 1e8})
    if narrow_middle and routers > 1:
        u, v = rng.choice(sorted(graph.edges()))
        graph[u][v][BANDWIDTH_ATTR] = 20_000.0
    nodes = []
    for index in range(clients):
        client = routers + index
        graph.add_node(client, **{ROLE_ATTR: "client"})
        graph.add_edge(client, rng.randrange(routers), **{
            LATENCY_ATTR: rng.uniform(0.0005, 0.003),
            BANDWIDTH_ATTR: rng.choice((50_000.0, 100_000.0))})
        nodes.append(client)
    return Topology(graph=graph, clients=nodes, name="random")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), routers=st.integers(1, 8),
       clients=st.integers(2, 6), narrow_middle=st.booleans(),
       sends=st.integers(1, 120))
def test_queues_serve_one_packet_at_a_time_in_bounded_arrival_order(
        seed, routers, clients, narrow_middle, sends):
    """On random topologies and send schedules: the service intervals of
    every queueing link are disjoint, and no packet is served behind one that
    reached the link more than one maximum transmission time after it."""
    rng = random.Random(seed)
    topology = _random_topology(rng, routers, clients, narrow_middle)
    simulator = Simulator(seed=seed)
    emulator = NetworkEmulator(simulator, topology, max_queue_delay=0.3)
    addresses = [emulator.attach_host().address for _ in range(clients)]
    served: dict[tuple[int, int], list[tuple[float, float, float]]] = {}
    inner = DirectedLink.enqueue

    def recording(link, arrival, transmission):
        wait = inner(link, arrival, transmission)
        if wait >= 0.0:
            served.setdefault((link.src, link.dst), []).append(
                (arrival, arrival + wait, transmission))
        return wait

    DirectedLink.enqueue = recording
    try:
        when = 0.0
        for _ in range(sends):
            when += rng.choice((0.0, 0.0, rng.uniform(0.0, 0.05)))
            src, dst = rng.sample(addresses, 2)
            simulator.schedule_at(
                when, lambda s=src, d=dst, size=rng.choice((20, 400, 1400)):
                emulator.send(Packet(s, d, None, size)))
        simulator.run()
    finally:
        DirectedLink.enqueue = inner

    stats = emulator.stats
    assert stats.packets_sent == sends
    assert stats.packets_delivered + stats.packets_dropped == sends
    for key, services in served.items():
        longest = max(transmission for _, _, transmission in services)
        by_start = sorted(services, key=lambda service: service[1])
        for (arrival, start, transmission), (next_arrival, next_start, _) \
                in zip(by_start, by_start[1:]):
            assert start + transmission <= next_start + 1e-12, key
        for position, (arrival, start, _) in enumerate(by_start):
            for earlier_arrival, _, _ in by_start[:position]:
                assert earlier_arrival <= arrival + longest + 1e-12, key
