"""Tests for neighbor sets."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.runtime.neighbors import (
    NeighborError,
    NeighborFieldSpec,
    NeighborSet,
    NeighborType,
)


@pytest.fixture
def children_type() -> NeighborType:
    return NeighborType("ochildren", 4, (NeighborFieldSpec("delay", "double"),
                                         NeighborFieldSpec("bandwidth", "double")))


@pytest.fixture
def children(children_type) -> NeighborSet:
    return NeighborSet("kids", children_type, rng=random.Random(1))


def test_add_query_entry_remove(children):
    entry = children.add(101, delay=0.5)
    assert children.query(101)
    assert children.size() == 1
    assert children.entry(101) is entry
    assert entry.delay == 0.5
    assert entry.bandwidth == 0.0
    assert entry.ipaddr == 101
    removed = children.remove(101)
    assert removed is entry
    assert not children.query(101)
    assert children.remove(101) is None


def test_add_existing_updates_fields(children):
    children.add(101, delay=0.5)
    children.add(101, delay=0.9, bandwidth=2.0)
    assert children.size() == 1
    assert children.entry(101).delay == 0.9
    assert children.entry(101).bandwidth == 2.0


def test_unknown_field_rejected(children):
    with pytest.raises(NeighborError):
        children.add(101, rtt=1.0)


def test_unknown_field_rejected_on_refresh(children):
    children.add(5, key=1, delay=0.5)
    with pytest.raises(NeighborError):
        children.add(5, key=2, delay=0.9, bogus=1)
    entry = children.entry(5)
    assert not hasattr(entry, "bogus")
    # A refused refresh changes nothing, declared fields and key included.
    assert (entry.key, entry.delay) == (1, 0.5)


def test_generation_counts_membership_changes(children):
    generations = [children.generation]

    def changed() -> int:
        generations.append(children.generation)
        return generations[-1] - generations[-2]

    children.add(5, key=1)
    assert changed() == 1            # a new address
    children.add(5, key=1, delay=0.3)
    assert changed() == 0            # same-key refresh
    children.add(5)
    assert changed() == 0            # refresh that names no key
    children.add(5, key=2)
    assert changed() == 1            # key change
    children.remove(99)
    assert changed() == 0            # absent address
    children.add(6)
    children.add(7)
    assert changed() == 2
    children.remove(6)
    assert changed() == 1            # present address
    children.clear()
    assert changed() == 2            # once per entry


def test_max_size_enforced(children):
    for address in range(4):
        children.add(address)
    assert children.is_full
    with pytest.raises(NeighborError):
        children.add(99)
    # Re-adding an existing member when full is fine (it is an update).
    children.add(2, delay=1.0)


def test_entry_for_missing_address_raises(children):
    with pytest.raises(NeighborError):
        children.entry(12345)


def test_random_and_first(children):
    assert children.random() is None
    assert children.first() is None
    children.add(1)
    children.add(2)
    picks = {children.random().addr for _ in range(50)}
    assert picks <= {1, 2}
    assert len(picks) == 2
    assert children.first().addr == 1


def test_clear_and_iteration_order(children):
    for address in (5, 3, 9):
        children.add(address)
    assert children.addresses() == [5, 3, 9]
    assert [entry.addr for entry in children] == [5, 3, 9]
    children.clear()
    assert len(children) == 0
    assert not children


def test_observers_fire_on_add_and_remove(children):
    events = []
    children.add_observer(lambda s, action, addr: events.append((action, addr)))
    children.add(7)
    children.remove(7)
    children.add(8)
    children.clear()
    assert events == [("add", 7), ("remove", 7), ("add", 8), ("remove", 8)]


def test_keys_follow_entries(children):
    children.add(1, key=111)
    children.add(2, key=222)
    assert children.keys() == [111, 222]


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=30))
def test_membership_matches_model(addresses):
    neighbor_type = NeighborType("peers", 1000)
    neighbor_set = NeighborSet("peers", neighbor_type, rng=random.Random(0))
    model: dict[int, None] = {}
    for address in addresses:
        neighbor_set.add(address)
        model[address] = None
    assert sorted(neighbor_set.addresses()) == sorted(model)
    assert neighbor_set.size() == len(model)
    for address in model:
        assert neighbor_set.query(address)
