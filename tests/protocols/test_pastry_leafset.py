"""Pastry's leaf-set upkeep against the per-side rule it implements.

A leaf set of ``LEAF_SET`` holds the ``LEAF_SET // 2`` nearest peers on
each side of the node's key.  ``leaf_update`` gets there incrementally: it
memoises the two leaves that bound the set's range with the leaf set's
generation and sorts again only when that number moves.  The reference
below applies the rule as it is stated, with no memo: of the leaves and
the newcomer, keep the half nearest clockwise and the half nearest the
other way round.  Both are driven through the same seeded sequence of peer
additions and ``error`` removals and must agree on every leaf, in order,
after every step; each removal must ask the farthest live leaf on the
failed leaf's side for its leaf set.
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
    """The per-side rule, scanned every time; returns what it did."""
    if leafset.query(addr):
        return "member"
    if not leafset.is_full:
        leafset.add(addr, key=key)
        return "added"
    half = leafset.type.max_size // 2
    pool = leaves(leafset) + [(addr, key)]
    clockwise = sorted(pool, key=lambda leaf: key_space.distance(my_key, leaf[1]))
    counter = sorted(pool, key=lambda leaf: key_space.distance(leaf[1], my_key))
    keep = set(clockwise[:half]) | set(counter[:half])
    if (addr, key) not in keep:
        return "rejected"
    for leaf in pool[:-1]:
        if leaf not in keep:
            leafset.remove(leaf[0])
    leafset.add(addr, key=key)
    return "evicted"


def farthest_on_side(leafset: NeighborSet, key_space: KeySpace, my_key: int,
                     failed: int) -> int:
    """The live leaf farthest from *my_key* on *failed*'s side of a full set."""
    half = leafset.type.max_size // 2
    clockwise = sorted(leaves(leafset),
                       key=lambda leaf: key_space.distance(my_key, leaf[1]))
    side = clockwise[:half] if failed in dict(clockwise[:half]) \
        else clockwise[half:][::-1]
    return [addr for addr, _ in side if addr != failed][-1]


def leaves(leafset: NeighborSet) -> list[tuple[int, int]]:
    return [(entry.addr, entry.key) for entry in leafset.entries()]


@pytest.fixture
def agent():
    simulator = Simulator(seed=30)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=30))
    return MacedonNode(simulator, emulator, [pastry_agent()]).lowest_agent


def test_leaf_update_matches_the_per_side_rule(agent, monkeypatch):
    rng = random.Random(30)
    space = agent.key_space
    # Keys sit near a few offsets on either side of the agent's own key, so
    # both sides fill and empty and the two range bounds move often; no two
    # are equal, as no two hashed addresses are.
    step = space.size // 64
    peers = {}
    for offset in range(1, 121):
        addr = agent.my_addr + offset
        peers[addr] = (agent.my_key + rng.choice((-1, 1))
                       * (rng.randint(1, 30) * step + offset)) % space.size
    addresses = sorted(peers)
    reference = NeighborSet("leafset", agent.leafset.type)
    outcomes = {"member": 0, "added": 0, "evicted": 0, "rejected": 0,
                "removed": 0}
    sent = []
    monkeypatch.setattr(agent, "send_msg",
                        lambda message, dest, **_: sent.append(
                            (message.type.name, dest)))

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
            was_leaf = reference.query(addr)
            expected = (farthest_on_side(reference, space, agent.my_key, addr)
                        if was_leaf and reference.is_full else None)
            del sent[:]
            agent.api_call("error", addr)
            if reference.remove(addr) is not None:
                outcomes["removed"] += 1
            asked = [dest for name, dest in sent if name == "leaf_req"]
            if expected is not None:
                assert asked == [expected]
            elif not was_leaf:
                assert asked == []
        assert leaves(agent.leafset) == leaves(reference)

    # Every path of the memo ran many times: hits, re-sorts after an
    # eviction, and re-sorts after a removal.
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("a, b", [
    (0, 0), (0, 1), (1, 0), (0, 2**31), (2**31, 0), (0, 2**31 + 1),
    (2**32 - 1, 0), (0, 2**32 - 1), (5, 2**32 - 5), (123456789, 987654321),
])
def test_bi_distance_is_the_shorter_way_around(agent, a, b):
    space = agent.key_space
    assert agent.bi_distance(a, b) == min(space.distance(a, b),
                                          space.distance(b, a))
