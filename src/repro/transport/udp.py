"""The socket-backed counterpart of the network emulator (live mode).

:class:`SocketUdpNetwork` frames the very same ``Datagram``/``Segment``
envelopes (and their :class:`WireCodec`-encoded payloads) over a real UDP
socket between OS processes, presenting the emulator's
``send``/``set_receive_callback``/``attach_host`` surface so
:class:`~repro.transport.demux.TransportHost` and every transport class —
best-effort demux, reliable windows, epochs, reassembly — run unchanged in
live mode.  :class:`SocketFaults` is its fault table and carries the
simulator's network-fault verbs, so a node process binds its own partition
and degrade rows to it, as the simulator binds them to its emulator.  See
docs/LIVE.md.

The module loads what framing runs and nothing more: :mod:`asyncio` (and
through it ssl, socket, selectors and subprocess) is imported by
:meth:`SocketUdpNetwork.open`, when a socket is bound on an event loop, and
:mod:`logging` by the first warning.  A process that frames datagrams
through an in-memory pipe (the ``live_framing`` benchmark, the wire tests)
loads neither; a simulated run does not import this module at all.
"""

from __future__ import annotations

import random
import struct
import time
from typing import TYPE_CHECKING, Mapping, Optional

from ..network.addressing import HostAddress
from ..network.emulator import NetworkHooks
from ..network.packet import Packet
from ..runtime.messages import WireCodec, WireError
from .base import Datagram, Segment
# Re-exported for the benchmark tracer (bench/layers.py), which wraps the
# best-effort transport through this path.
from .best_effort import UdpTransport  # noqa: F401

if TYPE_CHECKING:
    import asyncio
    import logging


def _logger() -> logging.Logger:
    """This module's logger, ``repro.transport.udp``: :mod:`logging` is
    imported on the first message, not with the module."""
    import logging
    return logging.getLogger(__name__)

#: Frames larger than this are split into fragment datagrams.  Sized to the
#: old single-datagram ceiling so every frame that fit before still goes out
#: as one unfragmented, byte-identical datagram (pinned by the fragmentation
#: tests), while staying under the 65 507-byte UDP payload maximum.
FRAGMENT_THRESHOLD = 60_000

#: Seconds an incomplete reassembly buffer may wait for its missing
#: fragments before it is garbage-collected (IP-style: lose one fragment,
#: lose the message).
FRAGMENT_TIMEOUT = 5.0

#: Lowest overlay address; 0 is avoided because the specs treat a zero
#: address as "unset" (``if candidate:`` guards).  Node index *i* of a live
#: deployment is overlay address ``FIRST_ADDRESS + i``.
FIRST_ADDRESS = 1

#: One simulated latency-factor unit maps to this many seconds of added
#: one-way delay on a degraded node's access link (localhost has no
#: meaningful base RTT to scale, so the unit is declared, not measured).
DEGRADE_DELAY_UNIT = 0.02

#: Ceilings keeping degradation survivable on a short live run: more delay
#: than this stalls reliable windows for the whole run, reporting transport
#: collapse instead of degradation.
MAX_DEGRADE_DELAY = 0.25
MAX_DEGRADE_LOSS = 0.75


class SocketFaults:
    """Network-fault table for one live socket: the live twin of the
    emulator's partition/degrade hooks, with the
    :class:`~repro.eval.experiment.OverlayExperiment` verbs that install
    them (node indices, as the simulator's take).

    A node process binds its spec's network-fault rows to its own table,
    so each verb runs in every process at its spec instant.  Partition and
    loss act where a real network would: a partition drops an outbound
    datagram after the transport stack handed it over (the send still
    "succeeds" — the bytes die in the network, not on the host); partition,
    loss, and delay act on arriving datagrams before any decoding.  A
    degraded node's access link limps both ways, so an arrival takes the
    rule of its source and this node's own: delays add and losses compound,
    as two degraded links in series do.  Partition membership and
    degradation are tracked separately so healing one fault never heals
    another that targets the same peer.
    """

    def __init__(self, local_address: int,
                 rng: Optional[random.Random] = None) -> None:
        self.local_address = local_address
        #: Loss rolls come from a per-node stream so a fixed seed gives a
        #: reproducible drop pattern per receiver (timing still varies).
        self.rng = rng if rng is not None \
            else random.Random(local_address * 0x9E3779B1)
        #: overlay address -> partition group, and this node's group; an
        #: unlisted address is in group 0 (the emulator's rule).
        self.group_of: dict[int, int] = {}
        self.group = 0
        #: degraded node address -> (added delay seconds, loss probability)
        self.degraded: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------------ fault verbs
    def partition(self, groups) -> None:
        """Host-group partition of node indices: a datagram whose two ends
        are in different groups is dropped; unlisted nodes are group 0,
        listed groups are numbered from 1 (``partition_hosts``)."""
        self.group_of = {FIRST_ADDRESS + index: number
                         for number, group in enumerate(groups, 1)
                         for index in group}
        self.group = self.group_of.get(self.local_address, 0)

    def heal_partition(self) -> None:
        self.group_of, self.group = {}, 0

    def degrade_node(self, index: int, bandwidth_factor: float,
                     latency_factor: float) -> None:
        """Degrade node *index*'s access link: the factors become capped
        added delay and loss."""
        delay = (latency_factor - 1.0) * DEGRADE_DELAY_UNIT
        loss = max(0.0, 1.0 - bandwidth_factor)
        self.degraded[FIRST_ADDRESS + index] = (
            min(MAX_DEGRADE_DELAY, delay), min(MAX_DEGRADE_LOSS, loss))

    def restore_node(self, index: int) -> None:
        self.degraded.pop(FIRST_ADDRESS + index, None)

    # --------------------------------------------------------------- verdicts
    def active(self) -> bool:
        return bool(self.group_of or self.degraded)

    def drops_outbound(self, dst: int) -> bool:
        return self.group_of.get(dst, 0) != self.group

    def inbound(self, src: int):
        """Verdict for an arriving datagram from *src*.

        ``"drop"`` discards it, a positive float delays delivery by that
        many seconds, ``None`` delivers immediately.
        """
        if self.group_of.get(src, 0) != self.group:
            return "drop"
        delay = loss = 0.0
        for end in {src, self.local_address}:
            rule = self.degraded.get(end)
            if rule is not None:
                delay += rule[0]
                loss = 1.0 - (1.0 - loss) * (1.0 - rule[1])
        if loss and self.rng.random() < loss:
            return "drop"
        return delay or None

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"SocketFaults(addr={self.local_address}, "
                f"groups={self.group_of}, degraded={self.degraded})")


class SocketUdpNetwork(NetworkHooks):
    """The network emulator's socket-backed counterpart for one live node.

    One instance owns one bound UDP socket and knows the ``(ip, port)``
    endpoint of every overlay address in the deployment (a static map the
    live cluster computes up front — the DNS of the harness).  It presents
    exactly the surface the transport subsystem and
    :class:`~repro.runtime.node.MacedonNode` use from
    :class:`~repro.network.emulator.NetworkEmulator`:

    * ``send(packet, payload_tag=None) -> bool`` — frames the packet's
      ``Datagram`` or ``Segment`` envelope plus its codec-encoded payload
      into one UDP datagram and transmits it;
    * ``set_receive_callback(address, cb)`` — registers the demux upcall;
    * ``attach_host`` / ``detach_host`` / ``reattach_host`` — address
      binding and the crash/recover mute switch;
    * ``install_send_tap`` / ``install_delivery_wrapper`` — the causal
      log's hooks (:class:`~repro.network.emulator.NetworkHooks`).

    Because the same envelopes cross the wire, the *entire* transport stack —
    best-effort fast path, reliable AIMD/SWP windows, restart epochs with
    challenge ACKs, fragmentation/reassembly — behaves identically in both
    modes; only the bytes become real.  ``payload_tag`` (link-stress
    accounting, a global-knowledge metric) is accepted and ignored: there is
    no omniscient observer on a real network.

    The instance is its own :class:`asyncio.DatagramProtocol` without
    subclassing it (asyncio's transports call the protocol's methods and
    check no type), so the class is defined without importing asyncio; it
    carries that protocol's whole method set.
    """

    MAGIC = 0xCD
    _HEADER = struct.Struct("!BBI")          # magic, frame kind, src address
    _FRAME_DATAGRAM = 1
    _FRAME_SEGMENT = 2
    _FRAME_RAW = 3
    _FRAME_FRAGMENT = 4
    #: kind flag, seq, ack, msg_id, chunk, chunks, epoch, dest_epoch, size,
    #: ack_delay — the full Segment envelope (its ~53 bytes of framing play
    #: the role of the emulator's fixed HEADER_BYTES overhead).
    _SEGMENT = struct.Struct("!BqqQIIIIId")
    _SIZE = struct.Struct("!II")             # a datagram's size and epoch
    #: magic, frame kind, src address, fragment id, index, count — each
    #: fragment datagram carries one slice of an oversized frame.
    _FRAGMENT = struct.Struct("!BBIIHH")
    #: Causal tracing (``repro.obs``): a packet's ``trace_id``,
    #: ``trace_hop`` and ``created_at`` (spec seconds), wrapped *around* a
    #: complete ordinary frame.  Only a packet a causal send tap tagged gets
    #: one — with tracing off every sub-cap frame stays byte-identical to
    #: the untraced build.
    _FRAME_TRACE = 6
    _TRACE = struct.Struct("!QHd")
    #: The counters :meth:`stats` reports, each a plain int attribute (the
    #: per-packet paths increment them in place).
    STATS = ("frames_sent", "frames_received", "bytes_sent", "bytes_received",
             "send_drops", "decode_errors", "fault_drops", "fragments_sent",
             "fragments_received", "reassembly_timeouts", "traced_frames")

    def __init__(self, local_address: int,
                 endpoints: Mapping[int, tuple[str, int]],
                 codec: WireCodec) -> None:
        if local_address not in endpoints:
            raise WireError(
                f"local address {local_address} missing from the endpoint map")
        self.local_address = local_address
        self.endpoints = dict(endpoints)
        self.codec = codec
        self._receive = None
        #: The delivery step a frame's packet goes through; observability
        #: wraps it (:meth:`install_delivery_wrapper`), not ``_receive``,
        #: which a node's recovery registers again.
        self._deliver_callback = self._deliver
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: False while "crashed": sends dropped, arrivals ignored.
        self.attached = True
        #: Injected network faults (partition/degrade rules), consulted on
        #: both send and receive; the node binds its fault rows to it.
        self.faults = SocketFaults(local_address)
        self._frag_id = 0
        #: (frame kind, transport name) -> the bytes every such frame of this
        #: socket starts with; received name bytes -> the name.
        self._prefixes: dict[tuple[int, str], bytes] = {}
        self._transport_names: dict[bytes, str] = {}
        #: (src, frag_id) -> partial reassembly state with a GC deadline.
        self._pending_fragments: dict[tuple[int, int], dict] = {}
        for name in self.STATS:
            setattr(self, name, 0)

    # ------------------------------------------------------------- lifecycle
    async def open(self) -> None:
        """Bind the local endpoint on the running event loop."""
        import asyncio
        loop = asyncio.get_running_loop()
        self._loop = loop
        host, port = self.endpoints[self.local_address]
        await loop.create_datagram_endpoint(lambda: self,
                                            local_addr=(host, port))

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def connection_made(self, transport) -> None:   # DatagramProtocol hook
        self._transport = transport

    def connection_lost(self, exc) -> None:         # DatagramProtocol hook
        self._transport = None
        if exc is not None:   # pragma: no cover - platform-dependent
            _logger().warning("live socket closed with error: %s", exc)

    def error_received(self, exc) -> None:          # pragma: no cover
        _logger().warning("live socket error: %s", exc)

    def pause_writing(self) -> None:                # DatagramProtocol hook
        """asyncio's transport holds more than its high-water mark of
        datagrams the kernel would not yet take.  Sending goes on: the
        reliable transports' windows pace what a node sends."""

    def resume_writing(self) -> None:               # DatagramProtocol hook
        """The transport's buffer has drained below its low-water mark."""

    # ------------------------------------------------- emulator-like surface
    def attach_host(self, topology_node: Optional[int] = None,
                    receive=None) -> HostAddress:
        """The node's attach call; a live node *is* its one host."""
        del topology_node   # There is no emulated topology to attach to.
        if receive is not None:
            self._receive = receive
        return HostAddress(address=self.local_address, topology_node=0)

    def set_receive_callback(self, address: int, receive) -> None:
        if address != self.local_address:
            raise WireError(
                f"cannot register a receive callback for {address} on the "
                f"socket bound to {self.local_address}")
        self._receive = receive

    def detach_host(self, address: int) -> None:
        if address == self.local_address:
            self.attached = False

    def reattach_host(self, address: int) -> None:
        if address == self.local_address:
            self.attached = True

    # ------------------------------------------------------------------ send
    def send(self, packet: Packet, payload_tag: Optional[str] = None) -> bool:
        del payload_tag   # Link-stress accounting is a simulation-only metric.
        if not self.attached or self._transport is None:
            self.send_drops += 1
            return False
        endpoint = self.endpoints.get(packet.dst)
        if endpoint is None:
            # Same behaviour as the emulator's detached-host rule: traffic to
            # an unknown/absent destination silently vanishes.
            self.send_drops += 1
            return False
        if self.faults.drops_outbound(packet.dst):
            # The datagram left this host and died in the (faulted) network:
            # the send succeeded as far as the transport stack knows.
            self.fault_drops += 1
            return True
        payload = packet.payload
        if type(payload) is Datagram:
            prefix = self._prefix(self._FRAME_DATAGRAM, payload.transport) \
                + self._SIZE.pack(payload.size, payload.epoch)
            payload = payload.payload
        elif isinstance(payload, Segment):
            prefix = self._prefix(self._FRAME_SEGMENT, payload.transport) \
                + self._SEGMENT.pack(
                    1 if payload.kind == "ACK" else 0, payload.seq,
                    payload.ack, payload.msg_id, payload.chunk,
                    payload.chunks, payload.epoch, payload.dest_epoch,
                    payload.size, payload.ack_delay)
            payload = payload.payload
        else:
            prefix = self._HEADER.pack(self.MAGIC, self._FRAME_RAW,
                                       self.local_address)
        # The codec joins the frame once, behind the prefix it is handed.
        frame = self.codec.encode_payload(payload, prefix)
        trace_id = packet.trace_id
        if trace_id is not None and packet.trace_hop <= 0xFFFF:
            frame = (self._HEADER.pack(self.MAGIC, self._FRAME_TRACE,
                                       self.local_address)
                     + self._TRACE.pack(trace_id, packet.trace_hop,
                                        packet.created_at)
                     + frame)
            self.traced_frames += 1
        if len(frame) > FRAGMENT_THRESHOLD:
            return self._send_fragmented(frame, endpoint)
        try:
            self._transport.sendto(frame, endpoint)
        except OSError as exc:   # pragma: no cover - oversized datagram, etc.
            _logger().warning("live send to %s failed: %s", endpoint, exc)
            self.send_drops += 1
            return False
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        return True

    def _prefix(self, frame_kind: int, transport: str) -> bytes:
        """Header + transport name of this socket's *frame_kind* frames:
        constant per name, so packed (and the name checked) once."""
        prefix = self._prefixes.get((frame_kind, transport))
        if prefix is None:
            try:
                name = transport.encode("ascii")
                prefix = self._prefixes[frame_kind, transport] = (
                    self._HEADER.pack(self.MAGIC, frame_kind,
                                      self.local_address)
                    + bytes([len(name)]) + name)
            except ValueError as exc:   # not ASCII, or over 255 bytes
                raise WireError(f"transport name {transport!r} does not fit "
                                f"a frame: {exc}") from exc
        return prefix

    def _send_fragmented(self, frame: bytes, endpoint) -> bool:
        """Split an oversized frame into fragment datagrams.

        Each fragment carries ``(frag_id, index, count)`` plus one slice of
        the original frame — header included, so the reassembled bytes feed
        the normal decode path unchanged.  As with IP fragmentation, losing
        any fragment loses the whole message (the receiver's reassembly
        buffer is garbage-collected after :data:`FRAGMENT_TIMEOUT`).
        """
        budget = FRAGMENT_THRESHOLD - self._FRAGMENT.size
        count = (len(frame) + budget - 1) // budget
        if count > 0xFFFF:   # pragma: no cover - a >3.9 GB message
            _logger().warning("frame of %d bytes exceeds the fragment count "
                           "limit; dropping", len(frame))
            self.send_drops += 1
            return False
        self._frag_id = frag_id = (self._frag_id + 1) & 0xFFFFFFFF
        view = memoryview(frame)   # a slice of it copies nothing
        for index in range(count):
            datagram = b"".join((
                self._FRAGMENT.pack(self.MAGIC, self._FRAME_FRAGMENT,
                                    self.local_address, frag_id, index, count),
                view[index * budget:(index + 1) * budget]))
            try:
                self._transport.sendto(datagram, endpoint)
            except OSError as exc:   # pragma: no cover - kernel buffer, etc.
                _logger().warning("live fragment send to %s failed: %s",
                               endpoint, exc)
                self.send_drops += 1
                return False
            self.frames_sent += 1
            self.fragments_sent += 1
            self.bytes_sent += len(datagram)
        return True

    # --------------------------------------------------------------- receive
    def datagram_received(self, data: bytes, addr) -> None:
        self.frames_received += 1
        self.bytes_received += len(data)
        try:
            magic, frame_kind, src = self._HEADER.unpack_from(data, 0)
        except struct.error:
            self.decode_errors += 1
            _logger().warning("dropping runt datagram from %s", addr)
            return
        if magic != self.MAGIC:
            self.decode_errors += 1
            _logger().warning("dropping datagram with bad magic %#x from %s",
                           magic, addr)
            return
        if not self.attached or self._receive is None:
            return
        faults = self.faults
        if faults.active():
            verdict = faults.inbound(src)
            if verdict == "drop":
                self.fault_drops += 1
                return
            if verdict and self._loop is not None:
                self._loop.call_later(verdict, self._frame_received,
                                      data, addr)
                return
        self._frame_received(data, addr, frame_kind, src)

    def _frame_received(self, data: bytes, addr,
                        frame_kind: Optional[int] = None, src: int = 0) -> None:
        """Decode one frame and deliver it.  A delayed datagram arrives
        without its header parsed."""
        if not self.attached or self._receive is None:
            return   # crashed while a delayed datagram was in flight
        trace_id, hop, sent_at = None, 0, 0.0
        try:
            if frame_kind is None:
                _, frame_kind, src = self._HEADER.unpack_from(data, 0)
            if frame_kind == self._FRAME_FRAGMENT:
                data = self._reassemble(data, addr)
                if data is None:
                    return
                _, frame_kind, src = self._HEADER.unpack_from(data, 0)
            if frame_kind == self._FRAME_TRACE:
                # Unwrap the causal fields; they go back on the packet.
                trace_id, hop, sent_at = self._TRACE.unpack_from(
                    data, self._HEADER.size)
                data = data[self._HEADER.size + self._TRACE.size:]
                _, frame_kind, src = self._HEADER.unpack_from(data, 0)
            offset = self._HEADER.size
            if frame_kind == self._FRAME_RAW:
                payload, end = self.codec.decode_payload(data, offset)
                size = 0
            else:
                offset += 1 + data[offset]
                name = data[self._HEADER.size + 1:offset]
                transport_name = self._transport_names.get(name)
                if transport_name is None:
                    transport_name = name.decode("ascii")
                    if len(self._transport_names) < 256:   # names off the wire
                        self._transport_names[name] = transport_name
                if frame_kind == self._FRAME_DATAGRAM:
                    size, epoch = self._SIZE.unpack_from(data, offset)
                    inner, end = self.codec.decode_payload(
                        data, offset + self._SIZE.size)
                    payload = Datagram(transport_name, inner, size, epoch)
                elif frame_kind == self._FRAME_SEGMENT:
                    (kind_flag, seq, ack, msg_id, chunk, chunks, epoch,
                     dest_epoch, size, ack_delay) = self._SEGMENT.unpack_from(
                         data, offset)
                    inner, end = self.codec.decode_payload(
                        data, offset + self._SEGMENT.size)
                    payload = Segment(
                        transport=transport_name,
                        kind="ACK" if kind_flag else "DATA", seq=seq,
                        payload=inner, size=size, ack=ack, msg_id=msg_id,
                        chunk=chunk, chunks=chunks, epoch=epoch,
                        dest_epoch=dest_epoch, ack_delay=ack_delay)
                else:
                    raise WireError(f"unknown frame kind {frame_kind}")
            if end != len(data):   # a frame ends where its datagram ends
                raise WireError(f"{len(data) - end} bytes behind the frame")
        except (WireError, struct.error, IndexError, UnicodeDecodeError) as exc:
            # A malformed datagram (version skew, stray traffic on the port)
            # must not kill a live node: count it and drop, like line noise.
            self.decode_errors += 1
            _logger().warning("dropping undecodable datagram from %s: %s",
                           addr, exc)
            return
        self._deliver_callback(Packet(src, self.local_address, payload, size,
                                      "live", sent_at, None, trace_id, hop))

    def _deliver(self, packet: Packet, stage: Optional[tuple] = None) -> bool:
        """Hand *packet* to the node: the socket's delivery step, with the
        emulator's signature (*stage* is unused; a datagram has arrived)."""
        try:
            self._receive(packet)
        except Exception:   # noqa: BLE001 - one bad packet must not stop the node
            _logger().exception("live receive callback failed for %r", packet)
        return True

    # ---------------------------------------------------------- reassembly
    def _reassemble(self, data: bytes, addr) -> Optional[bytes]:
        """Buffer one fragment; return the whole frame when complete."""
        self.fragments_received += 1
        now = time.monotonic()
        if self._pending_fragments:
            self._gc_fragments(now)
        try:
            _, _, src, frag_id, index, count = self._FRAGMENT.unpack_from(
                data, 0)
        except struct.error as exc:
            raise WireError(f"truncated fragment header: {exc}") from exc
        if count == 0 or index >= count:
            raise WireError(f"bad fragment index {index}/{count}")
        key = (src, frag_id)
        entry = self._pending_fragments.get(key)
        if entry is None:
            entry = self._pending_fragments[key] = {
                "deadline": now + FRAGMENT_TIMEOUT, "count": count,
                "chunks": {}}
        elif entry["count"] != count:
            del self._pending_fragments[key]
            raise WireError(
                f"fragment count changed mid-reassembly ({entry['count']} "
                f"vs {count}) for id {frag_id}")
        entry["chunks"][index] = memoryview(data)[self._FRAGMENT.size:]
        if len(entry["chunks"]) < entry["count"]:
            return None
        del self._pending_fragments[key]
        return b"".join(entry["chunks"][i] for i in range(entry["count"]))

    def _gc_fragments(self, now: Optional[float] = None) -> None:
        """Drop reassembly buffers whose missing fragments never came.

        Called lazily from the fragment path (a socket with no pending
        buffers pays nothing); tests may call it directly.
        """
        if now is None:
            now = time.monotonic()
        expired = [key for key, entry in self._pending_fragments.items()
                   if entry["deadline"] <= now]
        for key in expired:
            del self._pending_fragments[key]
            self.reassembly_timeouts += 1

    def stats(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.STATS}

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        endpoint = self.endpoints.get(self.local_address)
        return (f"SocketUdpNetwork(addr={self.local_address}, "
                f"endpoint={endpoint}, peers={len(self.endpoints) - 1})")
