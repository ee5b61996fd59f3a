"""Packets carried by the emulated network.

A packet is the unit the emulator queues, delays, and drops.  The payload is
opaque to the network layer — transports put their own segments inside — but
the size in bytes is what drives transmission delay and queue occupancy, as in
a hop-by-hop emulator such as ModelNet.

``Packet`` is allocated once per simulated packet, so it is a flat
``__slots__`` class; ``wire_size`` is precomputed at construction because the
emulator reads it at every queue.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

#: Fixed per-packet header overhead (IP + transport headers), in bytes.
HEADER_BYTES = 40

_packet_ids = itertools.count(1)


class Packet:
    """A network-layer packet in flight between two hosts."""

    __slots__ = ("src", "dst", "payload", "size", "protocol", "created_at",
                 "packet_id", "path", "wire_size", "trace_id", "trace_hop")

    def __init__(self, src: int, dst: int, payload: Any, size: int,
                 protocol: str = "udp", created_at: float = 0.0,
                 packet_id: Optional[int] = None,
                 path: Optional[tuple[int, ...]] = None,
                 trace_id: Optional[int] = None, trace_hop: int = 0) -> None:
        if size < 0:
            raise ValueError("packet payload size cannot be negative")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.protocol = protocol
        self.created_at = created_at
        self.packet_id = packet_id if packet_id is not None else next(_packet_ids)
        #: Filled in by the emulator: topology path the packet follows.
        self.path = path
        #: Bytes the packet occupies on a link (payload plus headers).
        self.wire_size = size + HEADER_BYTES
        #: Causal tracing (``repro.obs``): id of the request this packet
        #: belongs to and its hop index along the route.  ``None`` unless a
        #: causal tap tagged the packet; carried intact through the sharded
        #: kernel's cross-shard pickle.
        self.trace_id = trace_id
        self.trace_hop = trace_hop

    @property
    def hops(self) -> int:
        """Links on the packet's path (0 until the emulator routed it)."""
        return len(self.path) - 1 if self.path else 0

    def copy_for_retransmit(self) -> "Packet":
        """A fresh packet (new id, not yet routed) carrying the same payload."""
        return Packet(
            src=self.src,
            dst=self.dst,
            payload=self.payload,
            size=self.size,
            protocol=self.protocol,
            created_at=self.created_at,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.packet_id} {self.src}->{self.dst} proto={self.protocol} "
            f"size={self.size})"
        )
