"""Shared machinery for the reliable transports (TCP and SWP).

Both reliable kinds share everything except the window policy:

* segmentation of logical messages into MSS-sized segments;
* cumulative acknowledgements with duplicate-ACK fast retransmit;
* retransmission timers with exponential backoff and SRTT/RTTVAR estimation;
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
from typing import Any, Optional

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
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.INITIAL_RTO
        # Retransmission timer, re-armed on every transmit and every ACK: it
        # rides the kernel's generation-counter entries (schedule_gen) so the
        # constant re-arming allocates no EventHandle/_Event/label per packet.
        self._timer_cell = [0]
        self._timer_armed = False
        # Receiver state.
        self.expected_seq = 0
        self.out_of_order: dict[int, Segment] = {}
        self._assembly: dict[int, dict[str, Any]] = {}
        #: Last incarnation seen from the peer; None until the first segment.
        self.peer_epoch: Optional[int] = None

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
        self.in_flight[segment.seq] = _InFlight(segment, size, simulator._now)
        # The destination incarnation is stamped at (re)transmission, not at
        # enqueue: the sender may learn the peer restarted (via a challenge
        # ACK) while a segment sits in the queue or awaits retransmission.
        segment.dest_epoch = self.peer_epoch or 0
        transport._send_packet(self.peer, segment, size, payload_tag)
        # _arm_timer() with in_flight known to be non-empty.
        if self._timer_armed:
            simulator.cancel_gen(self._timer_cell)
        self._timer_armed = True
        simulator.schedule_gen(self.rto, self._on_timeout, self._timer_cell)

    def _retransmit(self, entry: _InFlight) -> None:
        entry.retransmitted = True
        entry.segment.dest_epoch = self.peer_epoch or 0
        self.transport._send_packet(self.peer, entry.segment, entry.size, None)
        self.transport.stats.retransmissions += 1

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
        self.queue.clear()
        self.in_flight.clear()
        self.out_of_order.clear()
        self._assembly.clear()

    def reset_for_peer_restart(self, epoch: int) -> None:
        """The peer fail-stopped and came back: start a fresh byte stream.

        Everything in flight toward the old incarnation is void (its receiver
        restarted at sequence zero and will never acknowledge the old
        stream), and the old incarnation's unfinished inbound stream will
        never complete — the losses a real TCP connection reset incurs.
        Segments already queued but not yet transmitted are kept: they get
        sequence numbers at transmission time, so they simply ride the new
        stream.
        """
        self.peer_epoch = epoch
        if self._timer_armed:
            self._timer_armed = False
            self.transport.simulator.cancel_gen(self._timer_cell)
        self.in_flight.clear()
        self.next_seq = 0
        self.send_base = 0
        self.dup_acks = 0
        self.rto = self.INITIAL_RTO
        self.expected_seq = 0
        self.out_of_order.clear()
        self._assembly.clear()
        self._pump()

    def _on_timeout(self) -> None:
        self._timer_armed = False
        if not self.in_flight:
            return
        self.policy.on_timeout()
        self.rto = min(self.rto * 2.0, self.MAX_RTO)
        entry = self.in_flight[min(self.in_flight)]
        entry.sent_at = self.transport.simulator._now
        self._retransmit(entry)
        self._arm_timer()

    def handle_ack(self, ack: int) -> None:
        """Process a cumulative ACK (next sequence number the peer expects)."""
        send_base = self.send_base
        if ack <= send_base:
            self.dup_acks += 1
            if self.dup_acks >= 3 and send_base in self.in_flight:
                self.policy.on_fast_retransmit()
                self._retransmit(self.in_flight[send_base])
                self.dup_acks = 0
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
                    self._update_rtt(now - entry.sent_at)
        self.send_base = ack
        self.policy.on_ack(newly_acked)
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
        self.rto = min(max(self.srtt + 4.0 * self.rttvar, self.MIN_RTO), self.MAX_RTO)

    # ---------------------------------------------------------------- receiver
    def handle_data(self, segment: Segment) -> None:
        seq = segment.seq
        out_of_order = self.out_of_order
        if seq == self.expected_seq and not out_of_order:
            # In order with nothing buffered: the insert/pop below would
            # hand back this very segment.
            self.expected_seq = seq + 1
            self._assemble(segment)
        else:
            if seq >= self.expected_seq and seq not in out_of_order:
                out_of_order[seq] = segment
            # Advance over any contiguous run starting at expected_seq.
            while self.expected_seq in out_of_order:
                ready = out_of_order.pop(self.expected_seq)
                self.expected_seq += 1
                self._assemble(ready)
        self._send_ack()

    def _send_ack(self) -> None:
        transport = self.transport
        transport._send_packet(    # Segment built positionally, as in send()
            self.peer,
            Segment(transport.name, "ACK", 0, None, 0, self.expected_seq,
                    0, 0, 1, transport.epoch, self.peer_epoch or 0),
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
    """Base class for TCP and SWP transport instances."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._connections: dict[int, ReliableConnection] = {}

    @abc.abstractmethod
    def _make_policy(self) -> WindowPolicy:
        """Window policy for a new connection."""

    def _connection(self, peer: int) -> ReliableConnection:
        connection = self._connections.get(peer)
        if connection is None:
            connection = ReliableConnection(self, peer, self._make_policy())
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

    def handle_segment(self, src: int, segment: Segment) -> None:
        self.stats.segments_received += 1
        connection = self._connections.get(src) or self._connection(src)
        epoch = segment.epoch
        if connection.peer_epoch is None:
            connection.peer_epoch = epoch
        elif epoch > connection.peer_epoch:
            # The peer fail-stopped and restarted: its old stream is gone.
            connection.reset_for_peer_restart(epoch)
        elif epoch < connection.peer_epoch:
            return  # Stale segment from a dead incarnation of the peer.
        if segment.dest_epoch < self.epoch:
            # Aimed at a dead incarnation of this host (e.g. a retransmission
            # of pre-crash traffic racing our recovery).  It must not touch
            # the fresh streams — buffering it would later deliver stale data
            # and shadow a genuine same-seq segment.  Challenge-ACK so the
            # live sender learns our epoch, resets, and retries.
            connection.send_challenge_ack()
            return
        if segment.kind == "ACK":
            connection.handle_ack(segment.ack)
        else:
            connection.handle_data(segment)

    def close(self) -> None:
        """Cancel every connection's retransmission timer and drop queues."""
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
