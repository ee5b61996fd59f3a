"""Wire-behaviour pin of the reliable transports (TCP and SWP).

Two transport hosts talk over a *scripted wire*: a stand-in for the emulator
with a fixed one-way latency on which a chosen transmission of a chosen
segment can be dropped, delayed past its successors (reordered) or delivered
twice.  Every segment handed to the
wire is recorded as ``(time, src, dst, kind, seq, ack, size, epoch,
dest_epoch, ack_delay)`` together with the order messages were delivered in
and the final :class:`TransportStats` of both hosts.  ``WIRE_SHA256`` is the
digest of that record as the code *before* the transport fast paths produced
it, re-pinned once when ACKs became held and piggybacked and loss recovery
became NewReno (docs/PERFORMANCE.md "Re-pinned baselines (delayed ACKs)"): a
fast path (direct send when the window has room, in-order delivery without
the reorder buffer, single-segment ACK without the range walk) must be
event-for-event and float-op-for-float-op the slow path's result, so the
digest may not change again until the wire behaviour is changed on purpose.

The remaining tests assert that each fast path is actually taken in the
uncongested case, i.e. that the pin above is exercising the slow paths
because of its losses, not because the fast paths never fire.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import astuple

from repro.network.packet import Packet
from repro.runtime.engine import Simulator
from repro.transport import reliable
from repro.transport.base import Segment, TransportKind
from repro.transport.demux import TransportHost

#: sha256 of :func:`wire_record`, computed on the commit before the fast paths
#: and re-pinned once for held, piggybacked ACKs and NewReno recovery.
WIRE_SHA256 = "efd8f7601d4c6c8ea300d29143c1b99afdfd880873411c8e590f2dd9616bbff8"

A, B = 1, 2


class ScriptedWire:
    """Emulator stand-in: fixed latency plus a per-segment fault script.

    ``script`` maps ``(src, kind, number, nth)`` — ``number`` is the ``seq``
    of a DATA segment or the ``ack`` of an ACK, ``nth`` counts earlier
    transmissions of that same segment — to ``"drop"``, ``"late"`` (arrives
    after the segments sent just behind it) or ``"dup"`` (arrives twice).
    Everything sent inside ``cut = (start, end)`` is dropped.
    """

    LATENCY = 0.010

    def __init__(self, simulator: Simulator, script: dict[tuple, str]) -> None:
        self.simulator = simulator
        self.script = script
        self.cut = (0.0, 0.0)
        self.callbacks: dict = {}
        self.log: list[tuple] = []
        self._seen: dict[tuple, int] = {}

    def set_receive_callback(self, address, callback) -> None:
        self.callbacks[address] = callback

    def send(self, packet: Packet, payload_tag=None) -> bool:
        segment = packet.payload
        key = (packet.src, segment.kind,
               segment.seq if segment.kind == "DATA" else segment.ack)
        nth = self._seen[key] = self._seen.get(key, -1) + 1
        action = self.script.get(key + (nth,), "ok")
        if self.cut[0] <= self.simulator.now < self.cut[1]:
            action = "drop"
        self.log.append((repr(self.simulator.now), packet.src, packet.dst,
                         segment.kind, segment.seq, segment.ack, packet.size,
                         segment.epoch, segment.dest_epoch, segment.ack_delay,
                         action))
        if action == "drop":
            return True
        delays = {"ok": (1.0,), "late": (4.5,), "dup": (1.0, 1.5)}[action]
        for factor in delays:
            self.simulator.schedule(self.LATENCY * factor, self._arrive, packet)
        return True

    def _arrive(self, packet: Packet) -> None:
        callback = self.callbacks.get(packet.dst)
        if callback is not None:
            callback(packet)


class Pair:
    """Hosts A and B on one scripted wire, with their delivery logs."""

    def __init__(self, kind: TransportKind, script: dict[tuple, str]) -> None:
        self.kind = kind
        self.simulator = Simulator(seed=5)
        self.wire = ScriptedWire(self.simulator, script)
        self.delivered: list[tuple] = []
        self.hosts = {A: self.host(A), B: self.host(B)}

    def host(self, address: int, epoch: int = 0) -> TransportHost:
        host = TransportHost(self.simulator, self.wire, address, epoch=epoch)
        host.declare(self.kind, "T")
        host.set_deliver_upcall(
            lambda src, payload, size, name: self.delivered.append(
                (repr(self.simulator.now), address, src, payload, size, name)))
        return host

    def restart(self, address: int, epoch: int) -> None:
        self.hosts[address].shutdown()
        self.hosts[address] = self.host(address, epoch)

    def record(self) -> list:
        stats = [(address, astuple(host.get("T").stats))
                 for address, host in sorted(self.hosts.items())]
        return [self.wire.log, self.delivered, stats]


def loss_reorder_duplicate(kind: TransportKind) -> Pair:
    """A window-filling burst each way under drops, a reordering and
    duplicates: queueing, the reorder buffer, duplicate ACKs with fast
    retransmit, RTO back-off and duplicate-data re-ACKs all run."""
    pair = Pair(kind, {
        (A, "DATA", 2, 0): "dup",       # duplicate data: re-ACKed, not re-delivered
        (B, "ACK", 4, 0): "dup",        # duplicate ACK of an acked prefix
        (A, "DATA", 5, 0): "drop",      # mid-burst loss: duplicate ACKs, fast retransmit
        (A, "DATA", 8, 0): "late",      # reordering: two segments overtake it
        (B, "DATA", 1, 0): "drop",      # the reverse direction loses one too
        (B, "ACK", 13, 0): "drop",      # a later cumulative ACK covers two
        (A, "DATA", 19, 0): "drop",     # tail loss: only the RTO can repair it,
        (A, "DATA", 19, 1): "drop",     # and it backs off once
    })
    a, b = pair.hosts[A], pair.hosts[B]
    for index in range(12):
        a.send("T", B, f"a{index}", 100 + index)
    for index in range(5):
        b.send("T", A, f"b{index}", 50)
    pair.simulator.run(until=1.0)
    for index in range(12, 20):
        a.send("T", B, f"a{index}", 300)
    pair.simulator.run(until=60.0)
    return pair


def chunked_message(kind: TransportKind) -> Pair:
    """One message of 3.6 MSS (four segments, the third lost once) between
    two single-segment ones."""
    pair = Pair(kind, {(A, "DATA", 3, 0): "drop"})
    a = pair.hosts[A]
    a.send("T", B, "head", 10)
    a.send("T", B, "bulk", 5000)
    a.send("T", B, "tail", 0)
    pair.simulator.run(until=30.0)
    return pair


def forged_ack_beyond_next_seq(kind: TransportKind) -> Pair:
    """A cumulative ACK for more than was ever sent, then traffic on the
    connection it left behind."""
    pair = Pair(kind, {})
    a = pair.hosts[A]
    for index in range(3):
        a.send("T", B, f"m{index}", 64)
    pair.simulator.run(until=0.005)      # the three are in flight, unacked
    forged = Segment("T", kind="ACK", ack=7)
    pair.wire.callbacks[A](Packet(src=B, dst=A, payload=forged, size=4))
    for index in range(3, 6):
        a.send("T", B, f"m{index}", 64)
    pair.simulator.run(until=20.0)
    return pair


def peer_restart_with_queue(kind: TransportKind) -> Pair:
    """B fail-stops and restarts (epoch 1) while A still has segments in
    flight and queued; A learns the new epoch from a challenge ACK, resets
    and drains its queue onto the fresh stream.  Then A restarts too and
    both talk at once: B resets on seeing A's new epoch (its segment in
    flight to the dead incarnation is lost), A repairs by RTO."""
    pair = Pair(kind, {})
    a = pair.hosts[A]
    for index in range(4):
        a.send("T", B, f"pre{index}", 80)
    pair.simulator.run(until=0.5)
    pair.restart(B, epoch=1)
    for index in range(24):
        a.send("T", B, f"q{index}", 80)
    pair.simulator.run(until=40.0)
    pair.restart(A, epoch=1)
    pair.hosts[B].send("T", A, "hello-again", 80)
    pair.hosts[A].send("T", B, "fresh", 80)
    pair.simulator.run(until=80.0)
    return pair


SCENARIOS = (loss_reorder_duplicate, chunked_message,
             forged_ack_beyond_next_seq, peer_restart_with_queue)


def wire_record() -> list:
    return [(scenario.__name__, kind.value, scenario(kind).record())
            for scenario in SCENARIOS
            for kind in (TransportKind.TCP, TransportKind.SWP)]


def test_wire_behaviour_is_pinned():
    digest = hashlib.sha256(repr(wire_record()).encode("utf-8")).hexdigest()
    assert digest == WIRE_SHA256


def test_pin_scenarios_exercise_the_slow_paths():
    """The pin means something only if its scenarios really run the window,
    loss, reordering, chunking and epoch-reset code."""
    for kind in (TransportKind.TCP, TransportKind.SWP):
        pair = loss_reorder_duplicate(kind)
        sent = [f"a{index}" for index in range(20)]
        assert [d[3] for d in pair.delivered if d[1] == B] == sent
        assert [d[3] for d in pair.delivered if d[1] == A] == \
            [f"b{index}" for index in range(5)]
        stats = pair.hosts[A].get("T").stats
        assert stats.retransmissions >= 3
        acks = [entry[5] for entry in pair.wire.log
                if entry[3] == "ACK" and entry[1] == B]
        assert any(acks[i] == acks[i + 1] == acks[i + 2]
                   for i in range(len(acks) - 2)), "no triple duplicate ACK"

        pair = chunked_message(kind)
        assert [(d[3], d[4]) for d in pair.delivered] == \
            [("head", 10), ("bulk", 5000), ("tail", 0)]

        pair = forged_ack_beyond_next_seq(kind)
        assert [d[3] for d in pair.delivered][:3] == ["m0", "m1", "m2"]

        pair = peer_restart_with_queue(kind)
        to_b = [d[3] for d in pair.delivered if d[1] == B]
        assert to_b[:4] == [f"pre{index}" for index in range(4)]
        assert to_b[-1] == "fresh"
        # Everything A still had queued when it learned the epoch rides the
        # fresh stream in order; what was in flight to the dead incarnation
        # is lost, as in a TCP reset.
        queued = [p for p in to_b if p.startswith("q")]
        assert queued == sorted(queued, key=lambda p: int(p[1:]))
        assert queued and queued[-1] == "q23"
        assert [d[3] for d in pair.delivered if d[1] == A] == []
        assert any(entry[8] == 1 for entry in pair.wire.log)


# ------------------------------------------------------------ the fast paths
class _NoWrites(dict):
    def __setitem__(self, key, value):
        raise AssertionError("out_of_order written on the in-order path")


class _NoAppends(deque):
    def append(self, item):
        raise AssertionError("segment queued with the window open")


def _uncongested_exchange(monkeypatch, kind: TransportKind):
    """Request/response ping-pong, one message outstanding per direction —
    every Chord control message looks like this to its connection."""
    pumps: list = []
    real_pump = reliable.ReliableConnection._pump
    monkeypatch.setattr(reliable.ReliableConnection, "_pump",
                        lambda self: (pumps.append(1), real_pump(self))[1])
    pair = Pair(kind, {})
    a, b = pair.hosts[A], pair.hosts[B]
    for host, peer in ((a, B), (b, A)):
        connection = host.get("T")._connection(peer)
        connection.out_of_order, connection.queue = _NoWrites(), _NoAppends()
    for index in range(10):
        a.send("T", B, f"ping{index}", 40)
        pair.simulator.run(until=pair.simulator.now + 0.05)
        b.send("T", A, f"pong{index}", 40)
        pair.simulator.run(until=pair.simulator.now + 0.05)
    assert [d[3] for d in pair.delivered] == [
        name for index in range(10) for name in (f"ping{index}", f"pong{index}")]
    return pair, pumps


def test_uncongested_send_skips_the_queue_and_in_order_data_the_reorder_buffer(
        monkeypatch):
    # _NoAppends / _NoWrites raise inside the exchange if a segment is ever
    # queued or buffered.
    for kind in (TransportKind.TCP, TransportKind.SWP):
        _uncongested_exchange(monkeypatch, kind)


def test_single_segment_ack_skips_range_walk_and_pump(monkeypatch):
    for kind in (TransportKind.TCP, TransportKind.SWP):
        pair, pumps = _uncongested_exchange(monkeypatch, kind)
        assert pumps == [], "_pump ran with nothing queued"
        connection = pair.hosts[A].get("T")._connection(B)
        assert connection.send_base == connection.next_seq == 10
        assert not connection.in_flight and not connection._timer_armed


def test_fast_and_slow_send_agree_event_for_event(monkeypatch):
    """The same traffic with the send fast path disabled (every segment
    forced through the queue) produces the identical wire record."""
    def traffic() -> list:
        pair = Pair(TransportKind.TCP, {(A, "DATA", 2, 0): "drop"})
        for index in range(6):
            pair.hosts[A].send("T", B, index, 200)
            pair.simulator.run(until=pair.simulator.now + 0.03)
        pair.simulator.run(until=20.0)
        return pair.record()

    fast = traffic()

    def always_queue(self, segment, size, payload_tag):
        self.queue.append((segment, size, payload_tag))
        self._pump()

    monkeypatch.setattr(reliable.ReliableConnection, "enqueue", always_queue)
    assert traffic() == fast
