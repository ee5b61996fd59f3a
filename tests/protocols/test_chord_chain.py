"""Chord answers from its successor chain.

``chain_owner`` returns the member of ``[successor] + succ_list`` whose arc
holds a key.  A property test checks it against an oracle written with
``KeySpace.between``.  Protocol tests on a converged 12-node ring check
what it saves:
- in-chain fingers are filled without a lookup;
- routed data goes straight to an in-chain owner, and walks back when a
  node missing from the chain made it overshoot;
- ``get_state`` carries the notify, so a steady ``stabilize`` round sends
  no ``notify_pred``.
"""

from __future__ import annotations

import collections

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.network import NetworkEmulator, transit_stub_topology
from repro.protocols import chord_agent
from repro.runtime import MacedonNode, Simulator
from repro.runtime.keys import KeySpace

#: A 16-key ring, so equal and adjacent keys are the common case.
SPACE = KeySpace(bits=4, digit_bits=4)
ME = 1            # this node's address; other members are 10..15


def oracle(key_space, my_key, my_addr, chain, key_of, target):
    """Walk the chain with ``between``: a member further clockwise than the
    furthest key so far owns the arc up to its key; others are skipped."""
    if chain[0] == my_addr:
        return my_addr
    last = my_key
    for addr in chain:
        if addr and key_space.between(key_of[addr], last, my_key):
            if key_space.between(target, last, key_of[addr],
                                 inclusive_end=True):
                return addr
            last = key_of[addr]
    return None


def probe(my_key, successor, succ_list, key_of):
    """A Chord agent with just the state ``chain_owner`` reads."""
    base = chord_agent()

    class Probe(base):
        def skey(self, address):
            return key_of[address]

    agent = Probe.__new__(Probe)     # no node: the routine is pure
    agent.key_space = SPACE
    agent.my_addr, agent.my_key = ME, my_key
    agent.successor, agent.succ_list = successor, succ_list
    return agent


keys = st.integers(min_value=0, max_value=SPACE.size - 1)
#: 0 is "no entry"; ME puts this node in its own chain; repeats are allowed.
members = st.sampled_from([0, ME, 10, 11, 12, 13, 14, 15])


@settings(max_examples=500, deadline=None)
@given(my_key=keys, target=keys, successor=members.filter(bool),
       succ_list=st.lists(members, max_size=5),
       member_keys=st.lists(keys, min_size=6, max_size=6))
@example(my_key=12, target=1, successor=10, succ_list=[10, 11],
         member_keys=[14, 2, 0, 0, 0, 0])             # wrap-around
@example(my_key=3, target=9, successor=10, succ_list=[10, ME, 11],
         member_keys=[5, 9, 0, 0, 0, 0])              # my_addr in the chain
@example(my_key=3, target=9, successor=10, succ_list=[10, 10, 0, 11],
         member_keys=[5, 9, 0, 0, 0, 0])              # duplicates and 0s
@example(my_key=3, target=9, successor=10, succ_list=[11, 12],
         member_keys=[7, 5, 9, 0, 0, 0])              # a stale order
@example(my_key=3, target=3, successor=10, succ_list=[10],
         member_keys=[7, 0, 0, 0, 0, 0])              # target == my_key
@example(my_key=3, target=8, successor=ME, succ_list=[],
         member_keys=[0, 0, 0, 0, 0, 0])              # a lone node
def test_chain_owner_matches_the_between_oracle(
        my_key, target, successor, succ_list, member_keys):
    key_of = {ME: my_key, **dict(zip(range(10, 16), member_keys))}
    agent = probe(my_key, successor, succ_list, key_of)
    assert agent.chain_owner(target) == oracle(
        SPACE, my_key, ME, [successor] + succ_list, key_of, target)


# --------------------------------------------------------------------------
# On a converged ring.

@pytest.fixture
def ring(monkeypatch):
    """A converged 12-node ring plus a log of every Chord send from then on."""
    chord = chord_agent()
    simulator = Simulator(seed=41)
    emulator = NetworkEmulator(simulator, transit_stub_topology(12, seed=41))
    nodes = [MacedonNode(simulator, emulator, [chord]) for _ in range(12)]
    for node in nodes:
        node.macedon_init(nodes[0].address)
    simulator.run(until=40.0)
    sent = []
    send_msg = chord.send_msg

    def logging_send_msg(self, message, dest, **options):
        sent.append((self.my_addr, message.name, dest, dict(message.fields)))
        send_msg(self, message, dest, **options)

    monkeypatch.setattr(chord, "send_msg", logging_send_msg)
    return simulator, nodes, sent


def owner_of(nodes, key):
    ordered = sorted((node.lowest_agent.my_key, node.address) for node in nodes)
    return next((addr for node_key, addr in ordered if node_key >= key),
                ordered[0][1])


def test_steady_stabilize_rounds_send_no_notify_pred(ring):
    simulator, nodes, sent = ring
    simulator.run(until=simulator.now + 2.0)     # four stabilize rounds
    names = collections.Counter(name for _, name, _, _ in sent)
    assert names["get_state"] >= 4 * len(nodes)
    assert names["state_reply"] == names["get_state"]
    assert names["notify_pred"] == 0
    # The notify still happened: every node knows its true predecessor.
    for node in nodes:
        agent = node.lowest_agent
        assert owner_of(nodes, agent.my_key + 1) == agent.successor
        predecessor = next(other for other in nodes
                           if other.lowest_agent.successor == node.address)
        assert agent.predecessor == predecessor.address


def test_fix_rounds_send_no_lookup_for_starts_in_the_chain(ring):
    simulator, nodes, sent = ring
    simulator.run(until=simulator.now + 4.0)     # every finger once
    fix = nodes[0].lowest_agent.PURPOSE_FIX
    looked_up = {(origin, kwargs["idx"]) for origin, name, _, kwargs in sent
                 if name == "lookup" and kwargs["origin"] == origin
                 and kwargs["purpose"] == fix}
    beyond_successor = 0
    for node in nodes:
        agent = node.lowest_agent
        for idx in range(agent.NUM_FINGERS):
            start = agent.key_space.wrap(agent.my_key + (1 << idx))
            owner = agent.chain_owner(start)
            assert ((node.address, idx) in looked_up) == (owner is None)
            assert agent.fingers[idx][1] == owner_of(nodes, start)
            beyond_successor += owner not in (None, agent.successor)
    assert beyond_successor > 0


def test_route_to_a_chain_owned_key_takes_one_overlay_hop(ring):
    simulator, nodes, sent = ring
    by_address = {node.address: node for node in nodes}
    delivered = []
    for node in nodes:
        node.macedon_register_handlers(
            deliver=lambda p, s, t, a=node.address: delivered.append(a))
    source = nodes[4]
    agent = source.lowest_agent
    owner = agent.succ_list[2]                   # two nodes past the successor
    assert owner not in (agent.successor, agent.succ_list[1])
    source.macedon_route(by_address[owner].lowest_agent.my_key, None, 64)
    simulator.run(until=simulator.now + 1.0)
    assert delivered == [owner]
    data = [(origin, dest) for origin, name, dest, _ in sent if name == "data"]
    assert data == [(source.address, owner)]


def test_route_past_a_node_missing_from_the_chain_walks_back(ring):
    """A node that joined behind a chain member is not in the sender's chain
    yet: the data overshoots to that member, which walks it back to its
    predecessor instead of routing it round the ring to the sender again."""
    simulator, nodes, sent = ring
    by_address = {node.address: node for node in nodes}
    delivered = []
    for node in nodes:
        node.macedon_register_handlers(
            deliver=lambda p, s, t, a=node.address: delivered.append(a))
    source = nodes[4]
    agent = source.lowest_agent
    _, unlisted, overshot = agent.succ_list[:3]
    agent.succ_list = [addr for addr in agent.succ_list if addr != unlisted]
    source.macedon_route(by_address[unlisted].lowest_agent.my_key, None, 64)
    simulator.run(until=simulator.now + 1.0)
    assert delivered == [unlisted]
    data = [(origin, dest) for origin, name, dest, _ in sent if name == "data"]
    assert data == [(source.address, overshot), (overshot, unlisted)]
