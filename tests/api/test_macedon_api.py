"""Tests for the overlay-generic MACEDON API surface (``MacedonNode``)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.handlers import Handlers
from repro.network import NetworkEmulator, transit_stub_topology
from repro.eval import Stack
from repro.protocols import randtree_agent
from repro.runtime import MacedonNode, Simulator


@dataclass(frozen=True)
class Pkt:
    seqno: int


def build_nodes(stack, count, seed=91):
    simulator = Simulator(seed=seed)
    emulator = NetworkEmulator(simulator, transit_stub_topology(count, seed=seed))
    nodes = [MacedonNode(simulator, emulator, stack) for _ in range(count)]
    return simulator, nodes


def test_handlers_dataclass():
    handlers = Handlers()
    assert (handlers.deliver, handlers.forward, handlers.notify,
            handlers.upcall) == (None, None, None, None)
    deliver = lambda p, s, t: None  # noqa: E731
    assert Handlers(deliver=deliver).deliver is deliver


def test_randtree_multicast_reaches_every_other_node():
    simulator, nodes = build_nodes([randtree_agent()], 6)
    got = []
    for node in nodes:
        node.macedon_register_handlers(deliver=lambda p, s, t: got.append(s))
        node.macedon_init(nodes[0].address)
    simulator.run(until=60)
    nodes[0].macedon_multicast(1, Pkt(0), 500)
    simulator.run(until=80)
    assert len(got) == len(nodes) - 1
    assert all(size == 500 for size in got)


def test_scribe_session_from_a_non_bootstrap_source():
    simulator, nodes = build_nodes(Stack("scribe").resolve(), 12, seed=92)
    received = []
    for node in nodes:
        node.macedon_register_handlers(deliver=lambda p, s, t: received.append(s))
        node.macedon_init(nodes[0].address)
    simulator.run(until=120)
    source = nodes[1]
    source.macedon_create_group(55)
    simulator.run(until=125)
    for node in nodes:
        if node is not source:
            node.macedon_join(55)
    simulator.run(until=160)
    source.macedon_multicast(55, Pkt(1), 800)
    simulator.run(until=200)
    assert len(received) >= len(nodes) - 1


def test_application_switches_overlay_without_code_changes():
    """The same application code runs over two different overlays."""

    def run_app(stack, group, seed):
        simulator, nodes = build_nodes(stack, 10, seed=seed)
        delivered = []
        for node in nodes:
            node.macedon_register_handlers(deliver=lambda p, s, t: delivered.append(p))
            node.macedon_init(nodes[0].address)
        simulator.run(until=120)
        source = nodes[0]
        source.macedon_create_group(group)
        simulator.run(until=125)
        for node in nodes[1:]:
            node.macedon_join(group)
        simulator.run(until=160)
        source.macedon_multicast(group, Pkt(9), 600)
        simulator.run(until=200)
        return len(delivered)

    over_tree = run_app([randtree_agent()], 7, seed=93)
    over_scribe = run_app(Stack("scribe").resolve(), 7, seed=94)
    assert over_tree >= 9
    assert over_scribe >= 9


def test_randtree_route_delivers_at_the_root():
    simulator, nodes = build_nodes([randtree_agent()], 4, seed=95)
    for node in nodes:
        node.macedon_init(nodes[0].address)
    simulator.run(until=30)
    seen = []
    nodes[0].macedon_register_handlers(deliver=lambda p, s, t: seen.append(p))
    # randtree 'route' pushes toward the root, which delivers.
    nodes[2].macedon_route(0, Pkt(3), 100)
    simulator.run(until=40)
    assert seen and seen[0] == Pkt(3)
