"""Behavioural tests for the DHT protocols (Chord and Pastry)."""

from __future__ import annotations

import pytest

from repro.eval.metrics import average_correct_route_entries
from repro.network import NetworkEmulator, transit_stub_topology
from repro.protocols import chord_agent, pastry_agent
from repro.runtime import MacedonNode, Simulator
from repro.runtime.failure import FailureDetectorConfig

NUM = 25


def _build(agent_classes, num, *, seed, run_for, failure_config=None):
    simulator = Simulator(seed=seed)
    emulator = NetworkEmulator(simulator, transit_stub_topology(num, seed=seed))
    nodes = [MacedonNode(simulator, emulator, agent_classes,
                         failure_config=failure_config) for _ in range(num)]
    for node in nodes:
        node.macedon_init(nodes[0].address)
    simulator.run(until=run_for)
    return simulator, emulator, nodes


@pytest.fixture(scope="module")
def chord_overlay():
    return _build([chord_agent()], NUM, seed=21, run_for=120.0)


@pytest.fixture(scope="module")
def pastry_overlay():
    return _build([pastry_agent()], NUM, seed=22, run_for=120.0)


def test_chord_all_nodes_join(chord_overlay):
    _, _, nodes = chord_overlay
    assert all(node.lowest_agent.state == "joined" for node in nodes)


def test_chord_successors_form_a_single_ring(chord_overlay):
    _, _, nodes = chord_overlay
    succ_of = {node.address: node.lowest_agent.successor_entry().addr for node in nodes}
    # Following successors from any node visits every node exactly once.
    start = nodes[0].address
    seen = [start]
    current = succ_of[start]
    while current != start and len(seen) <= len(nodes):
        seen.append(current)
        current = succ_of[current]
    assert len(seen) == len(nodes)


def test_chord_successors_are_globally_correct(chord_overlay):
    _, _, nodes = chord_overlay
    ordered = sorted((node.lowest_agent.my_key, node.address) for node in nodes)
    for node in nodes:
        agent = node.lowest_agent
        index = ordered.index((agent.my_key, node.address))
        expected = ordered[(index + 1) % len(ordered)]
        entry = agent.successor_entry()
        assert (entry.key, entry.addr) == expected


def test_chord_fingers_converge(chord_overlay):
    _, _, nodes = chord_overlay
    assert average_correct_route_entries(nodes, "chord") > 28.0


def test_chord_routes_reach_key_owner(chord_overlay):
    simulator, _, nodes = chord_overlay
    ordered = sorted((node.lowest_agent.my_key, node.address) for node in nodes)

    def owner_of(key):
        for node_key, address in ordered:
            if node_key >= key:
                return address
        return ordered[0][1]

    delivered = {}
    for node in nodes:
        node.macedon_register_handlers(
            deliver=lambda p, s, t, a=node.address: delivered.setdefault(a, 0) or
            delivered.__setitem__(a, delivered.get(a, 0) + 1))
    rng_keys = [7, 123456, 2**31, 2**32 - 5, nodes[3].lowest_agent.my_key]
    for key in rng_keys:
        delivered.clear()
        nodes[10].macedon_route(key, None, 100)
        simulator.run(until=simulator.now + 5)
        assert delivered.get(owner_of(key)), f"key {key} not delivered at owner"


def test_chord_rejoin_before_eviction_finds_its_true_successor():
    """A node back at its old address before anyone evicted it: the ring
    still names it as its predecessor's successor, so the join answer must
    skip it rather than make the joiner its own successor."""
    simulator, _, nodes = _build([chord_agent()], 12, seed=23, run_for=60.0)
    ordered = sorted((node.lowest_agent.my_key, node.address) for node in nodes)
    victim = nodes[5]
    index = ordered.index((victim.lowest_agent.my_key, victim.address))
    expected = ordered[(index + 1) % len(ordered)][1]
    victim.crash()
    simulator.run(until=simulator.now + 1.0)
    victim.recover(nodes[0].address)
    joined_with = []

    def poll() -> None:
        agent = victim.lowest_agent
        if agent.state == "joined":
            joined_with.append(agent.successor)
        else:
            simulator.schedule(0.001, poll)

    poll()
    simulator.run(until=simulator.now + 10.0)
    assert joined_with == [expected]


def test_chord_joiner_that_loses_its_successor_at_once_skips_to_the_next():
    """A rejoined node whose answered successor crashes before its first
    ``state_reply``: the join answer carried the answerer's successor chain,
    so the failure declaration promotes the next node of the ring instead of
    leaving the joiner alone to walk back one node per stabilize round."""
    config = FailureDetectorConfig(failure_timeout=4.0, heartbeat_timeout=2.0,
                                   check_interval=0.5)
    stabilize = 0.5
    simulator, _, nodes = _build([chord_agent()], 16, seed=103, run_for=60.0,
                                 failure_config=config)
    ordered = sorted((node.lowest_agent.my_key, node.address) for node in nodes)
    by_address = {node.address: node for node in nodes}
    joiner = nodes[5]
    index = ordered.index((joiner.lowest_agent.my_key, joiner.address))
    answered = ordered[(index + 1) % len(ordered)][1]
    expected = ordered[(index + 2) % len(ordered)][1]
    joiner.crash()
    simulator.run(until=simulator.now + 1.0)
    joiner.recover(nodes[0].address)
    while joiner.lowest_agent.state != "joined":
        simulator.run(until=simulator.now + 0.001)
    assert joiner.lowest_agent.successor == answered
    assert joiner.lowest_agent.succ_list[:2] == [answered, expected]
    by_address[answered].crash()
    crashed_at = simulator.now
    simulator.run(until=crashed_at + stabilize)
    assert joiner.lowest_agent.successor == answered   # no reply came back
    simulator.run(until=crashed_at + config.failure_timeout + 2 * stabilize)
    assert joiner.lowest_agent.successor == expected


def test_pastry_all_nodes_join_and_know_peers(pastry_overlay):
    _, _, nodes = pastry_overlay
    assert all(node.lowest_agent.state == "joined" for node in nodes)
    assert all(node.lowest_agent.routing_state_size() >= 5 for node in nodes)


def test_pastry_routes_reach_numerically_closest_node(pastry_overlay):
    simulator, _, nodes = pastry_overlay
    space = nodes[0].lowest_agent.key_space

    def closest(key):
        return min(nodes, key=lambda n: min(space.distance(n.lowest_agent.my_key, key),
                                            space.distance(key, n.lowest_agent.my_key)))

    delivered = {}
    for node in nodes:
        node.macedon_register_handlers(
            deliver=lambda p, s, t, a=node.address:
            delivered.__setitem__(a, delivered.get(a, 0) + 1))
    for key in (99, 2**20 + 17, 2**31 + 3, 2**32 - 100):
        delivered.clear()
        nodes[7].macedon_route(key, None, 100)
        simulator.run(until=simulator.now + 5)
        assert delivered.get(closest(key).address)


def test_pastry_location_cache_populated_and_expiring(pastry_overlay):
    simulator, _, nodes = pastry_overlay
    source = nodes[5]
    target_key = nodes[9].lowest_agent.my_key
    source.lowest_agent.cache_lifetime = 0.0
    source.macedon_route(target_key, None, 100)
    simulator.run(until=simulator.now + 5)
    assert source.lowest_agent.cache_lookup(target_key) == nodes[9].address
    # Expire it with a tiny lifetime.
    source.lowest_agent.cache_lifetime = 0.001
    simulator.run(until=simulator.now + 1)
    assert source.lowest_agent.cache_lookup(target_key) is None


def test_pastry_table_add_ignores_self(pastry_overlay):
    _, _, nodes = pastry_overlay
    agent = nodes[0].lowest_agent
    before = agent.routing_state_size()
    agent.table_add(agent.my_key, agent.my_addr)
    assert agent.routing_state_size() == before
