"""IP-style addressing for the emulated network.

Overlay nodes are attached to hosts in the emulated topology.  Each host gets
a compact integer address (analogous to an IPv4 address in the paper's
ModelNet runs) plus a human-readable dotted form for traces and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Base of the emulated address block (10.0.0.0/8 style, purely cosmetic).
_ADDRESS_BASE = 10 << 24


class AddressError(ValueError):
    """Raised for malformed or unknown network addresses."""


def format_address(address: int) -> str:
    """Render an integer host address in dotted-quad form."""
    if address < 0 or address > 0xFFFFFFFF:
        raise AddressError(f"address {address!r} out of 32-bit range")
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_address(text: str) -> int:
    """Parse a dotted-quad string back into an integer host address."""
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed address {text!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError as exc:
            raise AddressError(f"malformed address {text!r}") from exc
        if octet < 0 or octet > 255:
            raise AddressError(f"malformed address {text!r}")
        value = (value << 8) | octet
    return value


@dataclass(frozen=True)
class HostAddress:
    """An assigned host address: integer form plus topology attachment point."""

    address: int
    topology_node: int

    @property
    def dotted(self) -> str:
        return format_address(self.address)

    def __int__(self) -> int:
        return self.address


class AddressAllocator:
    """Sequentially allocates host addresses."""

    def __init__(self, base: int = _ADDRESS_BASE) -> None:
        self._base = base
        self._next = 1

    def allocate(self, topology_node: int) -> HostAddress:
        """Allocate the next free address, attached to *topology_node*."""
        address = self._base + self._next
        self._next += 1
        return HostAddress(address=address, topology_node=topology_node)
