"""Neighbor set management.

Overlay node state in MACEDON centres on typed neighbor sets::

    neighbor_types {
        oparent 1 { double delay; }
        ochildren MAX_CHILDREN { double delay; }
    }

A :class:`NeighborType` declares the per-entry fields and the maximum size; a
:class:`NeighborSet` is one instance of such a type held by a node (e.g.
``papa``, ``kids``).  The runtime exposes the paper's neighbor-management
primitives (``neighbor_add``, ``neighbor_size``, ``neighbor_random``,
``neighbor_query``, ``neighbor_entry``, ``neighbor_clear``, …) on the agent,
all of which operate on these sets.

Neighbor sets declared ``fail_detect`` are additionally registered with the
node's failure detector so a silent peer triggers the protocol's ``error``
API transition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

#: Default values by declared field type.
_FIELD_DEFAULTS: dict[str, Any] = {
    "int": 0,
    "long": 0,
    "double": 0.0,
    "float": 0.0,
    "bool": False,
    "key": 0,
    "ipaddr": 0,
    "string": "",
    "neighbor": None,
    "list": None,
}


class NeighborError(ValueError):
    """Raised for misuse of neighbor sets (overflow, unknown entry, …)."""


@dataclass(frozen=True)
class NeighborFieldSpec:
    """One per-entry field of a neighbor type."""

    name: str
    type_name: str

    def default(self) -> Any:
        if self.type_name == "list":
            return []
        return _FIELD_DEFAULTS.get(self.type_name, None)


@dataclass(frozen=True)
class NeighborType:
    """A declared neighbor type: per-entry fields plus a maximum cardinality."""

    name: str
    max_size: int
    fields: tuple[NeighborFieldSpec, ...] = ()

    def field_names(self) -> list[str]:
        return [spec.name for spec in self.fields]

    def check_fields(self, fields: dict[str, Any]) -> None:
        """Raise :class:`NeighborError` if *fields* names an undeclared field."""
        unknown = set(fields) - set(self.field_names())
        if unknown:
            raise NeighborError(
                f"neighbor type {self.name!r} has no field(s) {sorted(unknown)}"
            )


class NeighborEntry:
    """One neighbor in a set: its address, overlay key, and declared fields."""

    def __init__(self, neighbor_type: NeighborType, address: int,
                 key: Optional[int] = None, **fields: Any) -> None:
        self._type = neighbor_type
        self.addr = address
        #: Alias kept because the paper's sample transition uses ``ipaddr``.
        self.ipaddr = address
        self.key = key
        neighbor_type.check_fields(fields)
        for spec in neighbor_type.fields:
            setattr(self, spec.name, fields.get(spec.name, spec.default()))

    @property
    def type_name(self) -> str:
        return self._type.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborEntry({self._type.name}, addr={self.addr}, key={self.key})"


class NeighborSet:
    """An ordered set of neighbors of one declared type.

    Insertion order is preserved (useful for FIFO-style eviction) and entries
    are keyed by host address, so membership tests are O(1).

    :attr:`generation` goes up by one on every membership change (a new
    address, a refresh that changes an entry's key, the removal of a present
    address), so a protocol can memoise something it derives from the set —
    the two leaves that bound Pastry's leaf range — and recompute only when
    the number has moved.
    """

    def __init__(self, name: str, neighbor_type: NeighborType,
                 fail_detect: bool = False,
                 rng: Optional[random.Random] = None) -> None:
        self.name = name
        self.type = neighbor_type
        self.fail_detect = fail_detect
        self._entries: dict[int, NeighborEntry] = {}
        self.generation = 0
        self._rng = rng or random.Random(0)
        #: Observers notified on membership change (used by the failure
        #: detector and by the notify() upcall plumbing).
        self._observers: list = []

    # --------------------------------------------------------------- plumbing
    def add_observer(self, callback) -> None:
        self._observers.append(callback)

    def _notify(self, action: str, address: int) -> None:
        for callback in self._observers:
            callback(self, action, address)

    # ------------------------------------------------------------- membership
    def add(self, address: int, key: Optional[int] = None, **fields: Any) -> NeighborEntry:
        """Add (or refresh) a neighbor.  Returns its entry.

        Adding an address already present updates its fields in place rather
        than duplicating it.  Exceeding the declared maximum size, or naming
        an undeclared field, raises.
        """
        address = int(address)
        existing = self._entries.get(address)
        if existing is not None:
            if fields:
                self.type.check_fields(fields)
            if key is not None and key != existing.key:
                existing.key = key
                self.generation += 1
            for name, value in fields.items():
                setattr(existing, name, value)
            return existing
        if len(self._entries) >= self.type.max_size:
            raise NeighborError(
                f"neighbor set {self.name!r} is full "
                f"(max {self.type.max_size} of type {self.type.name!r})"
            )
        entry = NeighborEntry(self.type, address, key=key, **fields)
        self._entries[address] = entry
        self.generation += 1
        self._notify("add", address)
        return entry

    def remove(self, address: int) -> Optional[NeighborEntry]:
        """Remove a neighbor if present; returns the removed entry or None."""
        entry = self._entries.pop(int(address), None)
        if entry is not None:
            self.generation += 1
            self._notify("remove", int(address))
        return entry

    def clear(self) -> None:
        for address in list(self._entries):
            self.remove(address)

    def query(self, address: int) -> bool:
        """Membership test (the paper's ``neighbor_query``)."""
        return int(address) in self._entries

    def entry(self, address: int) -> NeighborEntry:
        """Direct entry access (the paper's ``neighbor_entry``)."""
        try:
            return self._entries[int(address)]
        except KeyError as exc:
            raise NeighborError(
                f"address {address} is not in neighbor set {self.name!r}"
            ) from exc

    def get(self, address: int) -> Optional[NeighborEntry]:
        return self._entries.get(int(address))

    def random(self) -> Optional[NeighborEntry]:
        """A uniformly random entry (the paper's ``neighbor_random``), or None."""
        if not self._entries:
            return None
        address = self._rng.choice(list(self._entries))
        return self._entries[address]

    def size(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.type.max_size

    def addresses(self) -> list[int]:
        return list(self._entries)

    def keys(self) -> list[Optional[int]]:
        return [entry.key for entry in self._entries.values()]

    def entries(self) -> list[NeighborEntry]:
        return list(self._entries.values())

    def first(self) -> Optional[NeighborEntry]:
        for entry in self._entries.values():
            return entry
        return None

    # ------------------------------------------------------------- dunderland
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[NeighborEntry]:
        return iter(list(self._entries.values()))

    def __contains__(self, address: int) -> bool:
        return self.query(address)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborSet({self.name!r}, {sorted(self._entries)})"
