"""Transport subsystem interfaces.

The MACEDON grammar lets the lowest-layer protocol declare named transport
instances of three kinds and bind each message type to one of them::

    transports {
        SWP HIGHEST;
        TCP HIGH;
        TCP MED;
        TCP LOW;
        UDP BEST_EFFORT;
    }

* ``TCP`` — reliable and congestion-friendly (AIMD window).
* ``UDP`` — unreliable and congestion-unfriendly (best effort).
* ``SWP`` — reliable but congestion-unfriendly (fixed-size sliding window).

Declaring *multiple* blocking transports of the same kind is the paper's
mechanism for message priority: if one TCP instance is blocked draining
low-priority traffic, high-priority messages on a different instance are not
head-of-line blocked behind it.  The runtime preserves those semantics: each
transport instance has its own send queue and connection state.

Of the bundled specs, ``chord.mac`` declares ``TCP CTRL`` and ``UDP
BEST_EFFORT``: its timer-driven, idempotent maintenance rides the datagram
instance, and a lookup picks its instance per send
(``send_msg(priority=…)`` indexes the declarations).  The other specs
declare one ``TCP CTRL``.  Heartbeats use a spec's first declaration.
"""

from __future__ import annotations

import abc
import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..network.emulator import NetworkEmulator
from ..network.packet import Packet
from ..runtime.engine import Simulator

#: Upcall signature: (source host address, payload, payload size, transport name).
DeliverUpcall = Callable[[int, Any, int, str], None]


class TransportError(RuntimeError):
    """Raised for misconfigured transport declarations or unknown instances."""


class TransportKind(enum.Enum):
    """The three transport service classes of the MACEDON grammar."""

    TCP = "TCP"
    UDP = "UDP"
    SWP = "SWP"

    @classmethod
    def parse(cls, text: str) -> "TransportKind":
        try:
            return cls[text.upper()]
        except KeyError as exc:
            raise ValueError(f"unknown transport kind {text!r}") from exc


class Segment:
    """What a reliable transport puts inside a network packet.

    A ``__slots__`` class with a hand-written constructor rather than a
    dataclass: one is allocated per DATA segment and per pure ACK, which
    makes it protocol-plane hot-path state (see docs/PERFORMANCE.md).
    """

    __slots__ = ("transport", "kind", "seq", "payload", "size", "ack",
                 "msg_id", "chunk", "chunks", "epoch", "dest_epoch",
                 "ack_delay")

    def __init__(self, transport: str, kind: str = "DATA", seq: int = 0,
                 payload: Any = None, size: int = 0, ack: int = -1,
                 msg_id: int = 0, chunk: int = 0, chunks: int = 1,
                 epoch: int = 0, dest_epoch: int = 0,
                 ack_delay: float = 0.0) -> None:
        self.transport = transport
        self.kind = kind       # "DATA" or "ACK"
        self.seq = seq
        self.payload = payload
        self.size = size
        #: Cumulative ACK (next sequence number expected from the receiver
        #: of this segment).  Always set on an ACK; on DATA it is -1 unless
        #: the segment piggybacks an ACK the sender was holding.
        self.ack = ack
        #: Seconds the receiver held ``ack`` before sending it (RFC 9002's
        #: ``ack_delay``): the sender subtracts it from its RTT sample.
        self.ack_delay = ack_delay
        #: Identifier of the logical message this segment belongs to (for
        #: reassembly); ``chunk``/``chunks`` index it within that message.
        self.msg_id = msg_id
        self.chunk = chunk
        self.chunks = chunks
        #: Incarnation of the sending host (bumped on fail-stop recovery).
        #: The receiving host uses it the way TCP uses new ISNs after a
        #: restart: a higher epoch from a peer resets its connections, a lower
        #: one is a stale pre-crash segment and is discarded.
        self.epoch = epoch
        #: The incarnation the sender believes the *destination* is running.
        #: A receiver that has restarted past this value drops the segment
        #: (it was aimed at its dead incarnation) and answers with a
        #: challenge ACK carrying its current epoch.  The sender then resets
        #: the connection and continues on a fresh stream; segments already
        #: in flight to the dead incarnation are LOST, exactly as
        #: unacknowledged data is lost in a real TCP connection reset (the
        #: restarted receiver has no state to deliver them into).
        #: Queued-but-untransmitted messages ride the new stream.
        self.dest_epoch = dest_epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Segment({self.transport!r}, {self.kind}, seq={self.seq}, "
                f"size={self.size}, ack={self.ack})")


class Datagram:
    """The inlined best-effort wire format: one unfragmented UDP message.

    Best-effort single-segment sends are the dominant traffic class, and they
    use none of the reliable machinery — no sequence numbers, no ACK field,
    no reassembly indices.  This four-slot envelope replaces the twelve-field
    :class:`Segment` on that path; the demux dispatches on its type before
    touching the segment machinery.  It carries its sender's incarnation as
    a segment does: the receiving host drops a datagram from a dead
    incarnation, and learns a peer's restart from its first datagram.
    """

    __slots__ = ("transport", "payload", "size", "epoch")

    def __init__(self, transport: str, payload: Any, size: int,
                 epoch: int = 0) -> None:
        self.transport = transport
        self.payload = payload
        self.size = size
        self.epoch = epoch


@dataclass
class TransportStats:
    """Per-transport-instance counters."""

    messages_sent: int = 0
    messages_delivered: int = 0
    segments_sent: int = 0
    segments_received: int = 0
    retransmissions: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    drops: int = 0


class Transport(abc.ABC):
    """Base class for one named transport instance bound to one host."""

    #: Maximum segment payload size in bytes (Ethernet-ish MSS).
    MSS = 1400
    #: Service class of this transport, known before ``__init__`` runs.
    kind: TransportKind

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        emulator: NetworkEmulator,
        local_address: int,
    ) -> None:
        self.name = name
        self.simulator = simulator
        self.emulator = emulator
        self.local_address = local_address
        #: This host's incarnation number, stamped on every outgoing segment
        #: (set by the TransportHost; 0 for a host that never crashed).
        self.epoch = 0
        #: The newest incarnation heard from each peer: the TransportHost's
        #: one map, shared by all its transports, which stamp it as a
        #: segment's ``dest_epoch``.
        self.peer_epochs: dict[int, int] = {}
        self.stats = TransportStats()
        self._deliver_upcall: Optional[DeliverUpcall] = None
        self._msg_ids = itertools.count(1)
        # Wire-protocol tag stamped on every outgoing packet, formatted once.
        self._protocol_label = f"{self.kind.value.lower()}:{name}"

    # ------------------------------------------------------------------ wiring
    def set_deliver_upcall(self, upcall: DeliverUpcall) -> None:
        """Register the callback invoked when a complete message arrives."""
        self._deliver_upcall = upcall

    def _deliver_up(self, src: int, payload: Any, size: int) -> None:
        self.stats.messages_delivered += 1
        self.stats.bytes_delivered += size
        if self._deliver_upcall is not None:
            self._deliver_upcall(src, payload, size, self.name)

    def _send_packet(self, dst: int, segment: Segment, size: int,
                     payload_tag: Optional[str] = None) -> bool:
        accepted = self.emulator.send(
            Packet(self.local_address, dst, segment, size,
                   self._protocol_label),
            payload_tag)
        stats = self.stats
        stats.segments_sent += 1
        stats.bytes_sent += size
        if not accepted:
            stats.drops += 1
        return accepted

    # --------------------------------------------------------------- interface
    @abc.abstractmethod
    def send(self, dst: int, payload: Any, size: int,
             payload_tag: Optional[str] = None) -> None:
        """Send a logical message of *size* bytes to host *dst*."""

    @abc.abstractmethod
    def handle_segment(self, src: int, segment: Segment) -> None:
        """Process a segment received from host *src*."""

    def handle_datagram(self, src: int, datagram: Datagram) -> None:
        """Process an inlined best-effort datagram.

        Only the best-effort transport produces (and therefore accepts)
        :class:`Datagram` envelopes; a reliable transport receiving one means
        the peer's stack binds this transport name to a different kind.
        """
        raise TransportError(
            f"transport {self.name!r} ({self.kind.value}) received a "
            f"best-effort datagram; peer stack binds this name to UDP"
        )

    def peer_restarted(self, src: int) -> None:
        """Host *src* fail-stopped and came back under a newer epoch (the
        host has recorded it): drop what this transport kept of its dead
        incarnation.  Base implementation is a no-op."""

    def close(self) -> None:
        """Release timers and queued state (fail-stop crash of the host).

        Base implementation is a no-op; transports with retransmission timers
        or send queues override it so a crashed node stops generating events.
        """

    # ------------------------------------------------------------------ helpers
    def next_msg_id(self) -> int:
        return next(self._msg_ids)

    def queued_bytes(self, dst: Optional[int] = None) -> int:
        """Bytes waiting to be transmitted (0 for unqueued transports)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, host={self.local_address})"
