"""Hash-based addressing (``macedon_key``).

The paper's API routes on a ``macedon_key`` which "is not necessarily an IP
address (it could be a hash of an IP address or name)".  The MACEDON Chord
implementation uses a 32-bit hash address space; we adopt the same default
width so routing-table comparisons against the baseline implementations are
apples-to-apples, while allowing protocols (Pastry) to request a different
width or digit base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Union

try:    # the builtin SHA-1, as ``random`` takes ``_sha512``: no OpenSSL load
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

#: Default width of the hash address space, matching the paper's MACEDON Chord.
DEFAULT_KEY_BITS = 32


def hash_bytes(data: bytes, bits: int = DEFAULT_KEY_BITS) -> int:
    """SHA-1 hash of *data*, truncated to *bits* bits.

    The paper's library collection includes SHA hashing; protocols use it to
    map node addresses and object names into the overlay address space.
    """
    if bits <= 0 or bits > 160:
        raise ValueError(f"key width must be in (0, 160] bits, got {bits}")
    digest = sha1(data).digest()
    value = int.from_bytes(digest, "big")
    return value >> (160 - bits)


@lru_cache(maxsize=65536)
def _hash_key_cached(cls: type, value: Union[str, int, bytes], bits: int) -> int:
    # ``cls`` is only a cache discriminator: equal-comparing values of
    # different types (2 vs 2.0 vs "2") hash to different byte forms below,
    # so they must not share a cache slot keyed on equality alone.
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, int):
        data = value.to_bytes(8, "big", signed=False)
    else:
        data = str(value).encode("utf-8")
    return hash_bytes(data, bits)


def hash_key(value: Union[str, int, bytes], bits: int = DEFAULT_KEY_BITS) -> int:
    """Hash an arbitrary identifier (name, IP integer, bytes) into the key space.

    A pure function of ``(type, value, bits)``, so the result is memoised:
    overlay protocols hash the same node addresses over and over on every
    maintenance beat, which made SHA-1 a measurable slice of the
    protocol-plane profile.  The cache is bounded (LRU) so pathological
    workloads cannot grow it without limit; unhashable identifiers fall back
    to the direct computation on their string form.
    """
    try:
        return _hash_key_cached(value.__class__, value, bits)
    except TypeError:
        return hash_bytes(str(value).encode("utf-8"), bits)


def key_digits(key: int, base_bits: int, digits: int) -> list[int]:
    """Split *key* into *digits* digits of *base_bits* bits each, most significant first.

    Pastry routes by correcting one digit (of ``2**base_bits`` possible values)
    per hop; this helper is shared by the MACEDON Pastry spec and the
    FreePastry baseline.
    """
    mask = (1 << base_bits) - 1
    out = []
    for i in range(digits - 1, -1, -1):
        out.append((key >> (i * base_bits)) & mask)
    return out


def shared_prefix_length(a: int, b: int, base_bits: int, digits: int) -> int:
    """Number of leading digits shared by keys *a* and *b*.

    Only the low ``digits * base_bits`` bits of either key count, as in
    :func:`key_digits`; the highest differing bit ends the shared prefix.
    """
    width = digits * base_bits
    differ = ((a ^ b) & ((1 << width) - 1)).bit_length()
    return (width - differ) // base_bits


@dataclass(frozen=True)
class KeySpace:
    """A configured hash address space (width + Pastry-style digit base)."""

    bits: int = DEFAULT_KEY_BITS
    digit_bits: int = 4

    def __post_init__(self) -> None:
        if self.bits % self.digit_bits != 0:
            raise ValueError(
                f"key width {self.bits} is not a multiple of digit width {self.digit_bits}"
            )

    @cached_property
    def size(self) -> int:
        """``2 ** bits``; cached in the instance (hot on every routing step)."""
        return 1 << self.bits

    @cached_property
    def num_digits(self) -> int:
        return self.bits // self.digit_bits

    @cached_property
    def digit_base(self) -> int:
        return 1 << self.digit_bits

    def hash(self, value: Union[str, int, bytes]) -> int:
        try:
            return _hash_key_cached(value.__class__, value, self.bits)
        except TypeError:  # unhashable identifier: direct computation
            return hash_bytes(str(value).encode("utf-8"), self.bits)

    def distance(self, a: int, b: int) -> int:
        return (b - a) % self.size

    def between(self, value: int, start: int, end: int, *,
                inclusive_start: bool = False, inclusive_end: bool = False) -> bool:
        """Whether *value* lies on the ring interval (start, end), either
        end optionally included; ``start == end`` is the whole ring, less
        *start* unless an end is included.  Chord's routing predicate."""
        size = self.size
        value %= size
        start %= size
        end %= size
        if start == end:
            if inclusive_start or inclusive_end:
                return True
            return value != start
        after_start = value > start or (inclusive_start and value == start)
        before_end = value < end or (inclusive_end and value == end)
        if start < end:
            return after_start and before_end
        return after_start or before_end

    def digits(self, key: int) -> list[int]:
        return key_digits(key, self.digit_bits, self.num_digits)

    def shared_prefix(self, a: int, b: int) -> int:
        return shared_prefix_length(a, b, self.digit_bits, self.num_digits)

    def wrap(self, value: int) -> int:
        return value % self.size

    def successor_distance_order(self, origin: int, keys: Iterable[int]) -> list[int]:
        """Sort *keys* by clockwise distance from *origin* (nearest successor first)."""
        return sorted(keys, key=lambda k: self.distance(origin, k))
