"""Per-host transport multiplexer.

One :class:`TransportHost` is attached to each emulated host.  It owns the
named transport instances a protocol stack declared, registers itself as the
host's network receive callback, and demultiplexes arriving segments to the
right transport instance by name — the interoperability layer the paper
describes sitting between the generated agent code and ns / native sockets.

It also keeps the one record of each peer's restart epoch: every arriving
datagram and segment carries its sender's incarnation, an older one than
recorded is a dead incarnation's and is dropped, and a newer one resets
every transport's state for that peer at once, whichever transport heard it.
"""

from __future__ import annotations

from typing import Any, Optional

from ..network.emulator import NetworkEmulator
from ..network.packet import Packet
from ..runtime.engine import Simulator
from .base import (DeliverUpcall, Datagram, Segment, Transport,
                   TransportError, TransportKind)
from .reliable import ReliableTransport
from .best_effort import UdpTransport


class TransportHost:
    """The set of named transport instances bound to one emulated host."""

    #: Name of the transport created automatically when a protocol declares none.
    DEFAULT_TRANSPORT = "DEFAULT"

    def __init__(self, simulator: Simulator, emulator: NetworkEmulator,
                 local_address: int, *, epoch: int = 0) -> None:
        self.simulator = simulator
        self.emulator = emulator
        self.local_address = local_address
        #: Incarnation of this host (bumped across fail-stop recoveries);
        #: stamped on outgoing segments so peers reset dead connections.
        self.epoch = epoch
        #: Peer address -> the newest incarnation heard from it.
        self.peer_epochs: dict[int, int] = {}
        self._transports: dict[str, Transport] = {}
        self._deliver_upcall: Optional[DeliverUpcall] = None
        #: False after shutdown(): sends are dropped, arrivals ignored.
        self.active = True
        emulator.set_receive_callback(local_address, self._on_packet)

    # ----------------------------------------------------------------- config
    def declare(self, kind: TransportKind, name: str) -> Transport:
        """Create a named transport instance of the given kind."""
        if name in self._transports:
            raise TransportError(f"transport {name!r} declared twice")
        if kind is TransportKind.UDP:
            transport = UdpTransport(name, self.simulator, self.emulator,
                                     self.local_address)
        else:
            transport = ReliableTransport(name, self.simulator, self.emulator,
                                          self.local_address, kind)
        transport.epoch = self.epoch
        transport.peer_epochs = self.peer_epochs
        if self._deliver_upcall is not None:
            transport.set_deliver_upcall(self._deliver_upcall)
        self._transports[name] = transport
        return transport

    def ensure_default(self) -> Transport:
        """Create the default TCP transport if nothing was declared."""
        if self.DEFAULT_TRANSPORT not in self._transports:
            self.declare(TransportKind.TCP, self.DEFAULT_TRANSPORT)
        return self._transports[self.DEFAULT_TRANSPORT]

    def set_deliver_upcall(self, upcall: DeliverUpcall) -> None:
        """Register the callback all transports use to deliver complete messages."""
        self._deliver_upcall = upcall
        for transport in self._transports.values():
            transport.set_deliver_upcall(upcall)

    # ------------------------------------------------------------------ access
    def get(self, name: str) -> Transport:
        try:
            return self._transports[name]
        except KeyError as exc:
            raise TransportError(
                f"unknown transport {name!r} on host {self.local_address} "
                f"(declared: {sorted(self._transports)})"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._transports

    @property
    def names(self) -> list[str]:
        return sorted(self._transports)

    def send(self, transport_name: str, dst: int, payload: Any, size: int,
             payload_tag: Optional[str] = None) -> None:
        """Send *payload* via the named transport instance."""
        if not self.active:
            return  # Crashed host: outgoing traffic silently vanishes.
        transport = self._transports.get(transport_name)
        if transport is None:
            self.get(transport_name)  # raises the detailed TransportError
        transport.send(dst, payload, size, payload_tag)

    # --------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Silence this host's transport subsystem (fail-stop crash).

        Cancels retransmission timers, drops queued segments, and mutes both
        directions: no segment is sent or processed afterwards.  The node
        builds a *fresh* TransportHost on recovery (re-registering the
        receive callback), so a shut-down host is never revived in place.
        """
        self.active = False
        for transport in self._transports.values():
            transport.close()

    # ----------------------------------------------------------------- receive
    def _on_packet(self, packet: Packet) -> None:
        if not self.active:
            return  # Crashed host: arrivals fall on dead silicon.
        segment = packet.payload
        kind = type(segment)
        if kind is not Datagram and kind is not Segment:
            # Not transport traffic (e.g. a raw test packet); ignore silently.
            return
        src = packet.src
        epoch = segment.epoch
        known = self.peer_epochs.get(src)
        if known != epoch:
            if known is not None and epoch < known:
                return  # Sent by a dead incarnation of the peer.
            self.peer_epochs[src] = epoch
            if known is not None:
                # The peer fail-stopped and restarted: recorded first, so
                # what a reset transmits is aimed at the new incarnation.
                for transport in self._transports.values():
                    transport.peer_restarted(src)
        transport = self._transports.get(segment.transport)
        if transport is None:
            # The peer used a transport name we have not declared; this is a
            # configuration error in a layered stack and should be loud.
            raise TransportError(
                f"host {self.local_address} received {kind.__name__.lower()} "
                f"for undeclared transport {segment.transport!r}"
            )
        if kind is Datagram:
            # Best-effort fast path: the dominant traffic class, dispatched
            # without touching the reliable machinery.
            transport.handle_datagram(src, segment)
        else:
            transport.handle_segment(src, segment)

    def stats(self) -> dict[str, Any]:
        """Per-transport statistics snapshot."""
        return {name: transport.stats for name, transport in self._transports.items()}
