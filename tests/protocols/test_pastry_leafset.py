"""Pastry's leaf-set upkeep against the scan-every-time version it replaced.

``leaf_update`` memoises the farthest leaf with the leaf set's generation
and rescans only when that number moves.  The reference below is the
routine as it was before the memo: it scans the whole leaf set for the
farthest entry on every call.  Both are driven through the same seeded
sequence of peer additions and ``error`` removals and must agree on every
leaf, in order, after every step.
"""

from __future__ import annotations

import random

import pytest

from repro.network import NetworkEmulator, transit_stub_topology
from repro.protocols import pastry_agent
from repro.runtime import MacedonNode, Simulator
from repro.runtime.keys import KeySpace
from repro.runtime.neighbors import NeighborSet

STEPS = 2_000


def reference_leaf_update(leafset: NeighborSet, key_space: KeySpace,
                          my_key: int, addr: int, key: int) -> str:
    """The scan-every-time leaf_update; returns what it did to the set."""

    def bi_distance(a: int, b: int) -> int:
        return min(key_space.distance(a, b), key_space.distance(b, a))

    if leafset.query(addr):
        return "member"
    if not leafset.is_full:
        leafset.add(addr, key=key)
        return "added"
    distance = bi_distance(my_key, key)
    worst, worst_distance = None, -1
    for entry in leafset.entries():
        entry_distance = bi_distance(my_key, entry.key)
        if entry_distance > worst_distance:
            worst, worst_distance = entry.addr, entry_distance
    if worst is not None and distance < worst_distance:
        leafset.remove(worst)
        leafset.add(addr, key=key)
        return "evicted"
    return "rejected"


def leaves(leafset: NeighborSet) -> list[tuple[int, int]]:
    return [(entry.addr, entry.key) for entry in leafset.entries()]


@pytest.fixture
def agent():
    simulator = Simulator(seed=30)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=30))
    return MacedonNode(simulator, emulator, [pastry_agent()]).lowest_agent


def test_leaf_update_matches_the_scanning_reference(agent):
    rng = random.Random(30)
    space = agent.key_space
    # Keys sit at a few symmetric offsets around the agent's own key, so
    # equal distances (ties for the farthest leaf) are common.
    step = space.size // 64
    peers = {}
    for offset in range(1, 121):
        addr = agent.my_addr + offset
        peers[addr] = (agent.my_key + rng.choice((-1, 1))
                       * rng.randint(1, 30) * step) % space.size
    addresses = sorted(peers)
    reference = NeighborSet("leafset", agent.leafset.type)
    outcomes = {"member": 0, "added": 0, "evicted": 0, "rejected": 0,
                "removed": 0}

    for _ in range(STEPS):
        roll = rng.random()
        if roll < 0.7 or not reference:
            addr = rng.choice(addresses)
            agent.table_add(peers[addr], addr)
            outcomes[reference_leaf_update(reference, space, agent.my_key,
                                           addr, peers[addr])] += 1
        else:
            # Mostly a current leaf; sometimes a peer that is not one.
            addr = (rng.choice(reference.addresses()) if roll < 0.9
                    else rng.choice(addresses))
            agent.api_call("error", addr)
            if reference.remove(addr) is not None:
                outcomes["removed"] += 1
        assert leaves(agent.leafset) == leaves(reference)

    # Every path of the memo ran many times: hits, rescans after an
    # eviction, and rescans after a removal.
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("a, b", [
    (0, 0), (0, 1), (1, 0), (0, 2**31), (2**31, 0), (0, 2**31 + 1),
    (2**32 - 1, 0), (0, 2**32 - 1), (5, 2**32 - 5), (123456789, 987654321),
])
def test_bi_distance_is_the_shorter_way_around(agent, a, b):
    space = agent.key_space
    assert agent.bi_distance(a, b) == min(space.distance(a, b),
                                          space.distance(b, a))
