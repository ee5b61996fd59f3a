"""Shared machinery for the reliable transports (TCP and SWP).

Both reliable kinds share everything except the window policy:

* segmentation of logical messages into MSS-sized segments;
* cumulative acknowledgements, held up to ``ACK_DELAY`` so that reverse data
  carries them or one ACK covers two segments (RFC 1122 §4.2.3.2), sent at
  once on a gap, a gap fill or a duplicate;
* duplicate-ACK fast retransmit with NewReno recovery (RFC 6582): one window
  reduction per window of losses, each further hole retransmitted on the
  partial ACK that exposes it;
* retransmission timers with exponential backoff, SRTT/RTTVAR estimation
  corrected for the peer's ACK hold (RFC 9002's ``ack_delay``), and the
  backoff reverted as soon as the peer is heard from again (after RFC 6069);
* in-order delivery and reassembly of logical messages at the receiver;
* per-connection send queues, which is what gives the paper's priority
  transports their meaning — a blocked low-priority connection does not stall
  a separate high-priority transport instance.

:class:`WindowPolicy` is the strategy object that differs between kinds:
``TCP`` uses slow start + AIMD congestion avoidance (congestion-friendly),
``SWP`` uses a fixed window (reliable but congestion-unfriendly).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Any, Callable, Optional

from .base import Segment, Transport, TransportKind


class WindowPolicy(abc.ABC):
    """How many segments may be outstanding, and how to react to events."""

    @abc.abstractmethod
    def window(self) -> float:
        """Current window size in segments."""

    def on_ack(self, newly_acked: int) -> None:
        """Called when *newly_acked* segments are cumulatively acknowledged."""

    def on_timeout(self) -> None:
        """Called when the retransmission timer fires."""

    def on_fast_retransmit(self) -> None:
        """Called when three duplicate ACKs trigger a fast retransmit."""


class AimdWindow(WindowPolicy):
    """TCP-style slow start and additive-increase/multiplicative-decrease."""

    def __init__(self, initial_window: float = 2.0, ssthresh: float = 64.0,
                 max_window: float = 256.0) -> None:
        self.cwnd = initial_window
        self.ssthresh = ssthresh
        self.max_window = max_window

    def window(self) -> float:
        return self.cwnd

    def on_ack(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0                      # slow start
            else:
                self.cwnd += 1.0 / max(self.cwnd, 1)  # congestion avoidance
        self.cwnd = min(self.cwnd, self.max_window)

    def on_timeout(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0

    def on_fast_retransmit(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh


class FixedWindow(WindowPolicy):
    """SWP-style fixed window: reliable, but never backs off."""

    def __init__(self, window_size: int = 16) -> None:
        self._window = float(window_size)

    def window(self) -> float:
        return self._window


class _InFlight:
    __slots__ = ("segment", "size", "sent_at", "retransmitted")

    def __init__(self, segment: Segment, size: int, sent_at: float,
                 retransmitted: bool = False) -> None:
        self.segment = segment
        self.size = size
        self.sent_at = sent_at
        self.retransmitted = retransmitted


class ReliableConnection:
    """One direction of reliable delivery between this host and one peer."""

    INITIAL_RTO = 1.0
    MIN_RTO = 0.2
    MAX_RTO = 30.0
    #: Longest a receiver holds a cumulative ACK (RFC 1122 allows 0.5 s; the
    #: BSD fast timer, 0.2 s).  Every RTO includes it as margin, as QUIC's
    #: includes ``max_ack_delay`` (RFC 9002 §6.2).
    ACK_DELAY = 0.1
    ACK_SIZE = 4

    def __init__(self, transport: "ReliableTransport", peer: int,
                 policy: WindowPolicy) -> None:
        self.transport = transport
        self.peer = peer
        self.policy = policy
        # Sender state.
        self.next_seq = 0
        self.send_base = 0
        #: (segment, size, payload_tag) waiting for room in the window.
        self.queue: deque[tuple[Segment, int, Optional[str]]] = deque()
        self.in_flight: dict[int, _InFlight] = {}
        self.dup_acks = 0
        #: NewReno's ``recover`` (RFC 6582): the highest sequence number sent
        #: when the last fast retransmit or timeout happened.  An ACK at or
        #: below it is partial, and duplicate ACKs below it halve nothing.
        self.recover = -1
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.INITIAL_RTO
        #: Timeouts since ``rto`` was last computed from the estimate.
        self.backoffs = 0
        # Retransmission timer, re-armed on every transmit and every ACK: it
        # rides the kernel's generation-counter entries (schedule_gen), the
        # one cancellable kind, so re-arming allocates only the heap entry.
        self._timer_cell = [0]
        self._timer_armed = False
        # Receiver state.
        self.expected_seq = 0
        #: Since when the ACK of ``expected_seq`` has been held (None: no ACK
        #: held).  The first DATA sent to the peer carries it, or the
        #: transport's flush sends it within ``ACK_DELAY``.
        self._ack_held_since: Optional[float] = None
        self.out_of_order: dict[int, Segment] = {}
        self._assembly: dict[int, dict[str, Any]] = {}

    # ------------------------------------------------------------------ sender
    def enqueue(self, segment: Segment, size: int, payload_tag: Optional[str]) -> None:
        if not self.queue and len(self.in_flight) < int(self.policy.window()):
            # Uncongested (every control message): what _pump does with a
            # one-item queue, without the round trip through the deque.
            segment.seq = self.next_seq
            self.next_seq += 1
            self._transmit(segment, size, payload_tag)
            return
        self.queue.append((segment, size, payload_tag))
        self._pump()

    def queued_bytes(self) -> int:
        return sum(size for _, size, _ in self.queue)

    def _pump(self) -> None:
        """Transmit queued segments while the window allows."""
        queue = self.queue
        if not queue:
            return
        # The window only moves on ACK/timeout events, never inside the
        # pump loop, so it is evaluated once per pump.
        window = int(self.policy.window())
        while queue and len(self.in_flight) < window:
            segment, size, payload_tag = queue.popleft()
            segment.seq = self.next_seq
            self.next_seq += 1
            self._transmit(segment, size, payload_tag)

    def _transmit(self, segment: Segment, size: int,
                  payload_tag: Optional[str]) -> None:
        """First transmission: record in flight, stamp, send, re-arm the RTO."""
        transport = self.transport
        simulator = transport.simulator
        now = simulator._now
        self.in_flight[segment.seq] = _InFlight(segment, size, now)
        # The destination incarnation is stamped at (re)transmission, not at
        # enqueue: the host may learn the peer restarted while a segment
        # sits in the queue or awaits retransmission.
        segment.dest_epoch = transport.peer_epochs.get(self.peer, 0)
        held = self._ack_held_since
        if held is not None:
            # Piggyback the held ACK; the transport's flush skips it now.
            self._ack_held_since = None
            segment.ack = self.expected_seq
            segment.ack_delay = now - held
        transport._send_packet(self.peer, segment, size, payload_tag)
        # _arm_timer() with in_flight known to be non-empty.
        if self._timer_armed:
            simulator.cancel_gen(self._timer_cell)
        self._timer_armed = True
        simulator.schedule_gen(self.rto, self._on_timeout, self._timer_cell)

    def _retransmit(self, entry: _InFlight) -> None:
        entry.retransmitted = True
        transport = self.transport
        entry.segment.dest_epoch = transport.peer_epochs.get(self.peer, 0)
        transport._send_packet(self.peer, entry.segment, entry.size, None)
        transport.stats.retransmissions += 1

    def _arm_timer(self) -> None:
        simulator = self.transport.simulator
        if self._timer_armed:
            self._timer_armed = False
            simulator.cancel_gen(self._timer_cell)
        if not self.in_flight:
            return
        self._timer_armed = True
        simulator.schedule_gen(self.rto, self._on_timeout, self._timer_cell)

    def close(self) -> None:
        """Drop all connection state and cancel the retransmission timer."""
        if self._timer_armed:
            self._timer_armed = False
            self.transport.simulator.cancel_gen(self._timer_cell)
        self._ack_held_since = None
        self.queue.clear()
        self.in_flight.clear()
        self.out_of_order.clear()
        self._assembly.clear()

    def reset_for_peer_restart(self) -> None:
        """The peer fail-stopped and came back: start a fresh byte stream.

        Everything in flight toward the old incarnation is void (its receiver
        restarted at sequence zero and will never acknowledge the old
        stream), and the old incarnation's unfinished inbound stream will
        never complete — the losses a real TCP connection reset incurs.
        Segments already queued but not yet transmitted are kept: they get
        sequence numbers at transmission time, so they simply ride the new
        stream.
        """
        if self._timer_armed:
            self._timer_armed = False
            self.transport.simulator.cancel_gen(self._timer_cell)
        self.in_flight.clear()
        self.next_seq = 0
        self.send_base = 0
        self.dup_acks = 0
        self.recover = -1
        self.rto = self.INITIAL_RTO
        self.backoffs = 0
        self.expected_seq = 0
        self._ack_held_since = None
        self.out_of_order.clear()
        self._assembly.clear()
        self._pump()

    def _on_timeout(self) -> None:
        self._timer_armed = False
        if not self.in_flight:
            return
        self.policy.on_timeout()
        self.rto = min(self.rto * 2.0, self.MAX_RTO)
        self.backoffs += 1
        # Everything sent so far is suspect: the ACKs that follow the repair
        # are partial (each exposes the next hole) until they pass it.
        self.recover = self.next_seq - 1
        entry = self.in_flight[min(self.in_flight)]
        entry.sent_at = self.transport.simulator._now
        self._retransmit(entry)
        self._arm_timer()

    def revert_backoff(self) -> None:
        """The peer was just heard from, so the path works again: drop the
        timeout back-off and retransmit the oldest segment now rather than
        when a backed-off timer (up to ``MAX_RTO``) fires.  The transport
        heuristic of RFC 6069, with any arriving segment as the signal."""
        self._reset_rto()
        entry = self.in_flight.get(self.send_base)
        if entry is not None:
            self._retransmit(entry)
            self._arm_timer()

    def handle_ack(self, ack: int, ack_delay: float) -> None:
        """Process a cumulative ACK (next sequence number the peer expects),
        which the peer held for *ack_delay* seconds before sending."""
        send_base = self.send_base
        if ack <= send_base:
            self.dup_acks += 1
            if self.dup_acks >= 3 and send_base > self.recover \
                    and send_base in self.in_flight:
                # One fast retransmit, and one window reduction, per window
                # of losses: partial ACKs repair the other holes.
                self.recover = self.next_seq - 1
                self.policy.on_fast_retransmit()
                self._retransmit(self.in_flight[send_base])
            return
        self.dup_acks = 0
        newly_acked = 0
        now = self.transport.simulator._now
        in_flight = self.in_flight
        # In-flight sequence numbers are contiguous in [send_base, next_seq),
        # so the acked prefix is exactly range(send_base, ack) — walking it
        # (ascending, the dict's insertion order) pops the same entries in
        # the same order as scanning the whole dict, without the list copy
        # (for exactly one segment, the uncongested case, without the range).
        acked = (send_base,) if ack == send_base + 1 \
            else range(send_base, min(ack, self.next_seq))
        for seq in acked:
            entry = in_flight.pop(seq, None)
            if entry is not None:
                newly_acked += 1
                if not entry.retransmitted:
                    self._update_rtt(now - entry.sent_at - ack_delay)
        self.send_base = ack
        if self.backoffs:
            self._reset_rto()   # no clean sample, but the path works
        self.policy.on_ack(newly_acked)
        if ack <= self.recover:
            # A partial ACK: the segment it asks for was lost too.
            entry = in_flight.get(ack)
            if entry is not None:
                self._retransmit(entry)
        self._arm_timer()
        if self.queue:
            self._pump()

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self._reset_rto()

    def _reset_rto(self) -> None:
        """The un-backed-off RTO: RFC 6298's, plus the peer's ACK hold."""
        self.backoffs = 0
        srtt = self.srtt
        self.rto = self.INITIAL_RTO if srtt is None else min(
            max(srtt + 4.0 * self.rttvar, self.MIN_RTO) + self.ACK_DELAY,
            self.MAX_RTO)

    # ---------------------------------------------------------------- receiver
    def handle_data(self, segment: Segment) -> None:
        seq = segment.seq
        out_of_order = self.out_of_order
        if seq == self.expected_seq and not out_of_order:
            # In order with nothing buffered: the insert/pop below would
            # hand back this very segment.
            self.expected_seq = seq + 1
            transport = self.transport
            held = self._ack_held_since
            # Hold the ACK *before* the upcall, so that a reply it sends to
            # the peer carries it.  A second segment restarts the hold at
            # zero (the ACK now answers it), and the ACK leaves at once.
            self._ack_held_since = transport.simulator._now
            if held is None:
                transport._hold_ack(self)
                self._assemble(segment)
            else:
                self._assemble(segment)
                if self._ack_held_since is not None:
                    self._send_ack()
            return
        # A gap, a gap fill or a duplicate: ACK at once.  An ACK held from
        # before leaves with its hold time, since it still answers the
        # segment that started the hold (a held ACK means nothing is
        # buffered, so this segment cannot have advanced expected_seq).
        if seq >= self.expected_seq and seq not in out_of_order:
            out_of_order[seq] = segment
        # Advance over any contiguous run starting at expected_seq.
        while self.expected_seq in out_of_order:
            ready = out_of_order.pop(self.expected_seq)
            self.expected_seq += 1
            self._assemble(ready)
        self._send_ack()

    def _send_ack(self) -> None:
        """A pure ACK of ``expected_seq``, carrying how long it was held."""
        transport = self.transport
        held = self._ack_held_since
        self._ack_held_since = None
        transport._send_packet(    # Segment built positionally, as in send()
            self.peer,
            Segment(transport.name, "ACK", 0, None, 0, self.expected_seq,
                    0, 0, 1, transport.epoch,
                    transport.peer_epochs.get(self.peer, 0),
                    0.0 if held is None else transport.simulator._now - held),
            self.ACK_SIZE, None)

    def send_challenge_ack(self) -> None:
        """Tell the peer our current incarnation (its segment targeted a dead
        one); carries no cumulative-ACK meaning beyond the epoch."""
        self._send_ack()

    def _assemble(self, segment: Segment) -> None:
        if segment.chunks <= 1:
            self.transport._deliver_up(self.peer, segment.payload, segment.size)
            return
        entry = self._assembly.setdefault(
            segment.msg_id, {"received": 0, "bytes": 0, "payload": None}
        )
        entry["received"] += 1
        entry["bytes"] += segment.size
        if segment.chunk == 0:
            entry["payload"] = segment.payload
        if entry["received"] == segment.chunks:
            self.transport._deliver_up(self.peer, entry["payload"], entry["bytes"])
            del self._assembly[segment.msg_id]


class ReliableTransport(Transport):
    """One reliable transport instance.  Its kind differs from the other
    reliable kind only in the window policy each connection gets:
    :class:`AimdWindow` for ``TCP``, :class:`FixedWindow` for ``SWP``."""

    def __init__(self, name: str, simulator, emulator, local_address: int,
                 kind: TransportKind) -> None:
        self.kind = kind
        super().__init__(name, simulator, emulator, local_address)
        self._window: Callable[[], WindowPolicy] = (
            AimdWindow if kind is TransportKind.TCP else FixedWindow)
        self._connections: dict[int, ReliableConnection] = {}
        #: Connections that started holding an ACK since the last flush (one
        #: may appear twice, or have sent its ACK since), and the one timer
        #: that flushes them: BSD's fast timer, armed exactly while the list
        #: is non-empty, so a hold costs no event of its own.
        self._held_acks: list[ReliableConnection] = []
        self._flush_cell = [0]

    def _hold_ack(self, connection: ReliableConnection) -> None:
        held = self._held_acks
        if not held:
            self.simulator.schedule_gen(ReliableConnection.ACK_DELAY,
                                        self._flush_acks, self._flush_cell)
        held.append(connection)

    def _flush_acks(self) -> None:
        """Send every ACK still held: each was held at most ``ACK_DELAY``."""
        held, self._held_acks = self._held_acks, []
        for connection in held:
            if connection._ack_held_since is not None:
                connection._send_ack()

    def _connection(self, peer: int) -> ReliableConnection:
        connection = self._connections.get(peer)
        if connection is None:
            connection = ReliableConnection(self, peer, self._window())
            self._connections[peer] = connection
        return connection

    def send(self, dst: int, payload: Any, size: int,
             payload_tag: Optional[str] = None) -> None:
        self.stats.messages_sent += 1
        connection = self._connections.get(dst) or self._connection(dst)
        if size <= self.MSS:
            # Positional: transport, kind, seq, payload, size, ack, msg_id,
            # chunk, chunks, epoch(, dest_epoch).
            connection.enqueue(
                Segment(self.name, "DATA", 0, payload, size, -1, 0, 0, 1,
                        self.epoch),
                size if size > 0 else 1, payload_tag)
            return
        msg_id = self.next_msg_id()
        chunks = (size + self.MSS - 1) // self.MSS
        remaining = size
        for index in range(chunks):
            chunk_size = min(self.MSS, remaining)
            remaining -= chunk_size
            connection.enqueue(
                Segment(self.name, "DATA", 0, payload if index == 0 else None,
                        chunk_size, -1, msg_id, index, chunks, self.epoch),
                chunk_size, payload_tag)

    def peer_restarted(self, src: int) -> None:
        """The peer fail-stopped and restarted: its old stream is gone."""
        connection = self._connections.get(src)
        if connection is not None:
            connection.reset_for_peer_restart()

    def handle_segment(self, src: int, segment: Segment) -> None:
        # The host has already dropped a segment from a dead incarnation of
        # the peer, and reset this connection if the peer is reborn.
        self.stats.segments_received += 1
        connection = self._connections.get(src) or self._connection(src)
        if segment.dest_epoch < self.epoch:
            # Aimed at a dead incarnation of this host (e.g. a retransmission
            # of pre-crash traffic racing our recovery).  It must not touch
            # the fresh streams — buffering it would later deliver stale data
            # and shadow a genuine same-seq segment.  Challenge-ACK so the
            # live sender learns our epoch, resets, and retries.
            connection.send_challenge_ack()
            return
        if segment.kind == "ACK":
            connection.handle_ack(segment.ack, segment.ack_delay)
        else:
            if segment.ack > connection.send_base:
                # A piggybacked ACK counts only when it advances: reverse
                # data is never a duplicate ACK.
                connection.handle_ack(segment.ack, segment.ack_delay)
            connection.handle_data(segment)
        if connection.backoffs:
            connection.revert_backoff()

    def close(self) -> None:
        """Cancel every timer (retransmission and ACK flush), drop queues."""
        if self._held_acks:
            self.simulator.cancel_gen(self._flush_cell)
            self._held_acks = []
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()

    def queued_bytes(self, dst: Optional[int] = None) -> int:
        if dst is not None:
            connection = self._connections.get(dst)
            return connection.queued_bytes() if connection else 0
        return sum(connection.queued_bytes() for connection in self._connections.values())

    def connection_count(self) -> int:
        return len(self._connections)
