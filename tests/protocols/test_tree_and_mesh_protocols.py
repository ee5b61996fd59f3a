"""Behavioural tests for the tree/mesh multicast overlays."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.eval import Stack
from repro.eval.metrics import multicast_tree_depths
from repro.protocols import (
    ammo_agent,
    nice_agent,
    overcast_agent,
    randtree_agent,
)


@dataclass(frozen=True)
class Pkt:
    seqno: int


def multicast_reaches_everyone(nodes, simulator, source, packets=4):
    received = {node.address: 0 for node in nodes}
    for node in nodes:
        node.macedon_register_handlers(
            deliver=lambda p, s, t, a=node.address:
            received.__setitem__(a, received[a] + 1))
    for index in range(packets):
        source.macedon_multicast(1, Pkt(index), 1000)
    simulator.run(until=simulator.now + 40)
    return [node for node in nodes
            if node is not source and received[node.address] < packets]


@pytest.mark.parametrize("maker", [randtree_agent, overcast_agent, ammo_agent])
def test_tree_overlays_form_a_rooted_tree_and_disseminate(maker, overlay_builder):
    simulator, _, nodes = overlay_builder([maker()], 20, seed=31, run_for=120.0)
    protocol = nodes[0].lowest_agent.PROTOCOL
    depths = multicast_tree_depths(nodes, protocol)
    assert depths[nodes[0].address] == 0
    assert all(depth >= 0 for depth in depths.values())
    # Every non-root node has a parent.
    assert all(nodes[i].lowest_agent.parent_address() is not None
               for i in range(1, len(nodes)))
    missing = multicast_reaches_everyone(nodes, simulator, nodes[0])
    assert not missing, f"{protocol}: nodes missing data: {missing}"


def test_randtree_respects_max_children(overlay_builder):
    simulator, _, nodes = overlay_builder([randtree_agent()], 30, seed=32, run_for=120.0)
    limit = nodes[0].lowest_agent.MAX_CHILDREN
    assert all(len(node.lowest_agent.tree_children()) <= limit for node in nodes)


def test_randtree_parent_child_consistency(overlay_builder):
    _, _, nodes = overlay_builder([randtree_agent()], 25, seed=33, run_for=120.0)
    by_addr = {node.address: node for node in nodes}
    for node in nodes[1:]:
        parent = node.lowest_agent.parent_address()
        assert parent in by_addr
        assert node.address in by_addr[parent].lowest_agent.tree_children()


def test_overcast_probing_produces_candidates(overlay_builder):
    simulator, _, nodes = overlay_builder([overcast_agent()], 15, seed=34, run_for=200.0)
    probed = sum(1 for node in nodes if node.lowest_agent.candidates.size() > 0
                 or node.lowest_agent.probes_to_send > 0
                 or node.lowest_agent.count > 0)
    # At least some nodes have been through a probe round.
    timers = sum(node.lowest_agent._timers.get("probe_requester").fire_count
                 for node in nodes)
    assert timers > 0


def test_nice_forms_clusters_and_delivers(overlay_builder):
    simulator, _, nodes = overlay_builder([nice_agent()], 24, seed=35, run_for=150.0)
    leaders = [node for node in nodes if node.lowest_agent.is_leader(0)]
    assert leaders, "no cluster leaders elected"
    max_cluster = nodes[0].lowest_agent.MAX_CLUSTER
    for node in nodes:
        assert len(node.lowest_agent.cluster_members(0)) <= max_cluster + 1
    missing = multicast_reaches_everyone(nodes, simulator, nodes[3])
    assert not missing


def test_nice_rp_knows_all_leaders(overlay_builder):
    _, _, nodes = overlay_builder([nice_agent()], 24, seed=36, run_for=150.0)
    rp = nodes[0].lowest_agent
    layer1 = set(rp.cluster_members(1))
    other_leaders = {node.address for node in nodes[1:] if node.lowest_agent.is_leader(0)}
    # Every non-RP leader registered with the rendezvous point.
    assert other_leaders <= layer1 | {rp.my_addr}


def test_bullet_builds_mesh_and_recovers_from_tree_loss(overlay_builder):
    simulator, emulator, nodes = overlay_builder(
        Stack("bullet").resolve(), 20, seed=37, run_for=100.0)
    # Mesh peers get assigned by the source.
    simulator.run(until=simulator.now + 30)
    peered = sum(1 for node in nodes if node.agent("bullet").mesh_peers())
    assert peered > len(nodes) / 2
    missing = multicast_reaches_everyone(nodes, simulator, nodes[0], packets=5)
    assert not missing
    # Every receiver recorded the packets it got.
    assert all(len(node.agent("bullet").packets_received()) >= 5
               for node in nodes if node is not nodes[0])


def test_ammo_root_paths_are_cycle_free(overlay_builder):
    _, _, nodes = overlay_builder([ammo_agent()], 20, seed=38, run_for=150.0)
    for node in nodes:
        path = node.lowest_agent.root_path
        assert node.address not in path
        assert len(path) == len(set(path))
