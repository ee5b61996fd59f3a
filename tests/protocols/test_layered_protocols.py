"""Behavioural tests for the layered protocols (Scribe, SplitStream)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.eval import Stack

GROUP = 4040


@dataclass(frozen=True)
class Pkt:
    seqno: int


def setup_session(overlay_builder, stack, seed, num=20):
    simulator, emulator, nodes = overlay_builder(stack, num, seed=seed, run_for=120.0)
    source = nodes[1]
    source.macedon_create_group(GROUP)
    simulator.run(until=simulator.now + 5)
    received = {node.address: 0 for node in nodes}
    for node in nodes:
        node.macedon_register_handlers(
            deliver=lambda p, s, t, a=node.address:
            received.__setitem__(a, received[a] + 1))
        if node is not source:
            node.macedon_join(GROUP)
    simulator.run(until=simulator.now + 40)
    return simulator, nodes, source, received


@pytest.mark.parametrize("base", ["pastry", "chord"])
def test_scribe_multicast_delivers_over_either_dht(overlay_builder, base):
    simulator, nodes, source, received = setup_session(
        overlay_builder, Stack("scribe", base=base).resolve(), seed=41)
    for index in range(5):
        source.macedon_multicast(GROUP, Pkt(index), 1000)
    simulator.run(until=simulator.now + 40)
    laggards = [node.address for node in nodes
                if node is not source and received[node.address] < 5]
    assert not laggards


def test_scribe_builds_a_tree_rooted_at_group_owner(overlay_builder):
    simulator, nodes, source, _ = setup_session(
        overlay_builder, Stack("scribe").resolve(), seed=42)
    roots = [node for node in nodes if node.agent("scribe").is_group_root(GROUP)]
    assert len(roots) == 1
    # Every member is someone's child or the root itself.
    children = set()
    for node in nodes:
        children.update(node.agent("scribe").group_children(GROUP))
    members = {node.address for node in nodes if node is not source}
    assert members <= children | {roots[0].address}


def test_scribe_non_members_do_not_deliver(overlay_builder):
    simulator, emulator, nodes = overlay_builder(
        Stack("scribe").resolve(), 15, seed=43, run_for=120.0)
    source = nodes[1]
    outsider = nodes[2]
    source.macedon_create_group(GROUP)
    simulator.run(until=simulator.now + 5)
    received = {node.address: 0 for node in nodes}
    for node in nodes:
        node.macedon_register_handlers(
            deliver=lambda p, s, t, a=node.address:
            received.__setitem__(a, received[a] + 1))
        if node not in (source, outsider):
            node.macedon_join(GROUP)
    simulator.run(until=simulator.now + 30)
    source.macedon_multicast(GROUP, Pkt(0), 1000)
    simulator.run(until=simulator.now + 20)
    assert received[outsider.address] == 0


def test_splitstream_uses_multiple_stripe_trees(overlay_builder):
    simulator, nodes, source, received = setup_session(
        overlay_builder, Stack("splitstream").resolve(), seed=44)
    splitstream = source.agent("splitstream")
    stripes = splitstream.stripe_groups(GROUP)
    assert len(stripes) == splitstream.num_stripes
    assert len(set(stripes)) == len(stripes)
    for index in range(8):
        source.macedon_multicast(GROUP, Pkt(index), 1000)
    simulator.run(until=simulator.now + 40)
    laggards = [node.address for node in nodes
                if node is not source and received[node.address] < 8]
    assert not laggards
    # The stripe roots are spread over more than one node (load balancing).
    scribe_roots = set()
    for node in nodes:
        for stripe in stripes:
            if node.agent("scribe").is_group_root(stripe):
                scribe_roots.add(node.address)
    assert len(scribe_roots) > 1


def test_splitstream_stripe_assignment_is_deterministic_per_seqno(overlay_builder):
    _, _, nodes = overlay_builder(Stack("splitstream").resolve(), 6, seed=45,
                                  run_for=60.0)
    agent = nodes[0].agent("splitstream")
    assert agent.stripe_for_payload(Pkt(3), 4) == 3 % 4
    assert agent.stripe_for_payload(Pkt(7), 4) == 7 % 4
    assert agent.stripe_for_payload(None, 4) in range(4)
