"""Best-effort datagram transport (the grammar's ``UDP`` kind).

Unreliable and congestion-unfriendly: every logical message becomes one or
more datagrams fired straight into the emulator; losses are not recovered and
there is no pacing.  Overlays use it for messages whose loss is tolerable
(periodic probes, soft-state refreshes, join requests that are retried by a
timer anyway).

The common case — a message that fits in one MSS — is fully inlined: a
three-slot :class:`Datagram` envelope goes straight into a
:class:`~repro.network.packet.Packet`, skipping :class:`Segment`
construction, the ``_send_packet`` indirection, and (on the receive side) the
reliable demux machinery.  Only oversized messages fall back to segments and
fragmentation.
"""

from __future__ import annotations

from typing import Any, Optional

from ..network.packet import Packet
from .base import Datagram, Segment, Transport, TransportKind


class UdpTransport(Transport):
    """Fire-and-forget datagrams with fragmentation but no reassembly timeout."""

    kind = TransportKind.UDP

    def send(self, dst: int, payload: Any, size: int,
             payload_tag: Optional[str] = None) -> None:
        stats = self.stats
        stats.messages_sent += 1
        if size <= self.MSS:
            # Inlined best-effort fast path (no Segment, no _send_packet).
            accepted = self.emulator.send(
                Packet(src=self.local_address, dst=dst,
                       payload=Datagram(self.name, payload, size),
                       size=size, protocol=self._protocol_label),
                payload_tag=payload_tag)
            stats.segments_sent += 1
            stats.bytes_sent += size
            if not accepted:
                stats.drops += 1
            return
        # Fragment oversized messages; the receiver reassembles, and if any
        # fragment is lost the whole message is lost (as with IP fragmentation).
        msg_id = self.next_msg_id()
        chunks = (size + self.MSS - 1) // self.MSS
        remaining = size
        for index in range(chunks):
            chunk_size = min(self.MSS, remaining)
            remaining -= chunk_size
            segment = Segment(
                transport=self.name, kind="DATA", seq=index,
                payload=payload if index == 0 else None,
                size=chunk_size, msg_id=msg_id, chunk=index, chunks=chunks,
                epoch=self.epoch,
            )
            self._send_packet(dst, segment, chunk_size, payload_tag)

    def handle_datagram(self, src: int, datagram: Datagram) -> None:
        self.stats.segments_received += 1
        self._deliver_up(src, datagram.payload, datagram.size)

    def handle_segment(self, src: int, segment: Segment) -> None:
        self.stats.segments_received += 1
        if segment.chunks <= 1:
            self._deliver_up(src, segment.payload, segment.size)
            return
        # A reborn sender restarts its message ids: its epoch tells its
        # messages from those of its dead incarnation, whose partial ones
        # can never complete.  A fragment from an older epoch than the
        # source's newest is dropped, and the newest's rise purges them.
        epoch = segment.epoch
        newest = self._epochs.get(src, epoch)
        if epoch < newest:
            return
        if epoch > newest:
            for stale in [other for other in self._reassembly
                          if other[0] == src]:
                del self._reassembly[stale]
        self._epochs[src] = epoch
        key = (src, epoch, segment.msg_id)
        pending = self._reassembly.get(key)
        if pending is None:
            pending = self._reassembly[key] = {"chunks": {}, "payload": None}
        pending["chunks"][segment.chunk] = segment.size
        if segment.chunk == 0:
            pending["payload"] = segment.payload
        if len(pending["chunks"]) == segment.chunks:
            total = sum(pending["chunks"].values())
            payload = pending["payload"]
            del self._reassembly[key]
            self._deliver_up(src, payload, total)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._reassembly: dict[tuple[int, int, int], dict] = {}
        self._epochs: dict[int, int] = {}
