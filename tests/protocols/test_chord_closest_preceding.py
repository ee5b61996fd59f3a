"""Property test: chord.mac's arithmetic ``closest_preceding`` against an
oracle written with ``KeySpace.between`` exactly as the routine used to be
(two ``between`` calls per finger, successor considered last)."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.protocols import chord_agent
from repro.runtime.keys import KeySpace

#: A 16-key ring, so equal and adjacent keys are the common case.
SPACE = KeySpace(bits=4, digit_bits=4)
ME = 1            # this node's address
SUCC = 2          # the successor's address, when it is not this node


def oracle(key_space, my_key, my_addr, fingers, successor, succ_key, target):
    best, best_key = None, None
    for entry in fingers.values():
        if key_space.between(entry[0], my_key, target):
            if best is None or key_space.between(entry[0], best_key, target):
                best, best_key = entry[1], entry[0]
    if successor != my_addr:
        if key_space.between(succ_key, my_key, target):
            if best is None or key_space.between(succ_key, best_key, target):
                best = successor
    return best


def probe(my_key, fingers, successor, succ_key):
    """A Chord agent with just the state ``closest_preceding`` reads."""
    base = chord_agent()

    class Probe(base):
        def skey(self, address):
            return {ME: my_key, SUCC: succ_key}[address]

    agent = Probe.__new__(Probe)     # no node: the routine is pure
    agent.key_space = SPACE
    agent.my_addr, agent.my_key = ME, my_key
    agent.fingers, agent.successor = fingers, successor
    return agent


keys = st.integers(min_value=0, max_value=SPACE.size - 1)
#: finger index -> (owner_key, owner address); addresses 10.. are distinct
#: per entry, so the test sees *which* of two equal keys won.
finger_tables = st.lists(keys, max_size=8).map(
    lambda owner_keys: {index: (key, 10 + index)
                        for index, key in enumerate(owner_keys)})


@settings(max_examples=400, deadline=None)
@given(my_key=keys, target=keys, fingers=finger_tables,
       succ_is_self=st.booleans(), succ_key=keys)
@example(my_key=3, target=3, fingers={0: (9, 10)}, succ_is_self=True,
         succ_key=0)                                  # target == my_key
@example(my_key=3, target=8, fingers={0: (3, 10), 1: (5, 11)},
         succ_is_self=False, succ_key=3)              # a finger key == my_key
@example(my_key=3, target=9, fingers={0: (7, 10), 1: (7, 11), 2: (5, 12)},
         succ_is_self=False, succ_key=7)              # duplicate finger keys
@example(my_key=3, target=9, fingers={}, succ_is_self=False, succ_key=6)
@example(my_key=3, target=9, fingers={}, succ_is_self=True, succ_key=6)
def test_closest_preceding_matches_the_between_oracle(
        my_key, target, fingers, succ_is_self, succ_key):
    successor = ME if succ_is_self else SUCC
    agent = probe(my_key, fingers, successor, succ_key)
    assert agent.closest_preceding(target) == oracle(
        SPACE, my_key, ME, fingers, successor, succ_key, target)


def test_finger_table_view_is_unchanged():
    agent = probe(3, {0: (7, 10), 5: [9, 11]}, ME, 0)
    assert agent.finger_table() == {0: (7, 10), 5: (9, 11)}
