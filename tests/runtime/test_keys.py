"""Unit and property-based tests for hash addressing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.runtime.keys import (
    DEFAULT_KEY_BITS,
    KeySpace,
    hash_key,
    key_digits,
    shared_prefix_length,
)

#: The 32-bit ring Chord routes on.
RING = KeySpace()


def test_hash_key_is_deterministic_and_bounded():
    assert hash_key("node-1") == hash_key("node-1")
    assert hash_key("node-1") != hash_key("node-2")
    assert 0 <= hash_key("anything") < RING.size


def test_hash_key_width():
    assert 0 <= hash_key("x", bits=8) < 256
    with pytest.raises(ValueError):
        hash_key("x", bits=0)


def test_between_simple_and_wrapping():
    assert RING.between(5, 1, 10)
    assert not RING.between(1, 1, 10)
    assert RING.between(1, 1, 10, inclusive_start=True)
    assert RING.between(10, 1, 10, inclusive_end=True)
    # Wrapping interval (10, 3): contains 11.. and 0..2
    assert RING.between(0, 10, 3)
    assert RING.between(12, 10, 3)
    assert not RING.between(5, 10, 3)


def test_between_degenerate_whole_ring():
    assert not RING.between(5, 5, 5)
    assert RING.between(7, 5, 5)
    assert RING.between(5, 5, 5, inclusive_start=True)


def test_distance():
    assert RING.size == 2 ** DEFAULT_KEY_BITS
    assert RING.distance(0, 10) == 10
    assert RING.distance(10, 0) == RING.size - 10
    assert RING.distance(7, 7) == 0


def test_key_space_digits_and_prefix():
    space = KeySpace(bits=32, digit_bits=4)
    assert space.num_digits == 8
    assert space.digit_base == 16
    key = 0x12345678
    assert space.digits(key) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert space.shared_prefix(0x12345678, 0x1234FFFF) == 4
    assert space.shared_prefix(key, key) == 8
    assert space.shared_prefix(0x02345678, 0x12345678) == 0


def test_key_space_requires_divisible_width():
    with pytest.raises(ValueError):
        KeySpace(bits=30, digit_bits=4)


def test_successor_distance_order():
    space = KeySpace()
    keys = [10, 200, 3000]
    assert space.successor_distance_order(150, keys) == [200, 3000, 10]


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_distance_antisymmetry(a, b):
    d_ab = RING.distance(a, b)
    d_ba = RING.distance(b, a)
    assert 0 <= d_ab < RING.size
    if a != b:
        assert d_ab + d_ba == RING.size
    else:
        assert d_ab == 0 and d_ba == 0


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_interval_membership_excludes_exactly_one_side(value, start, end):
    if start == end:
        return
    inside = RING.between(value, start, end)
    outside = RING.between(value, end, start)
    if value in (start, end):
        assert not inside or not outside
    else:
        # Every other point is in exactly one of the two arcs.
        assert inside != outside


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_shared_prefix_symmetric_and_bounded(a, b):
    length = shared_prefix_length(a, b, 4, 8)
    assert 0 <= length <= 8
    assert length == shared_prefix_length(b, a, 4, 8)
    if a == b:
        assert length == 8
    # The leading digits key_digits gives both keys, counted until they part.
    pairs = zip(key_digits(a, 4, 8), key_digits(b, 4, 8))
    assert length == next((index for index, (x, y) in enumerate(pairs)
                           if x != y), 8)


@given(st.text(min_size=0, max_size=40))
def test_hash_key_stays_in_range(text):
    assert 0 <= hash_key(text) < 2 ** DEFAULT_KEY_BITS
