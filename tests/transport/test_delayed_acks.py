"""Held and piggybacked ACKs, NewReno recovery and back-off reversion in the
reliable transports, on the scripted wire of the wire pin.

Log entries are ``(time, src, dst, kind, seq, ack, size, epoch, dest_epoch,
ack_delay, action)``; the wire's one-way latency is 10 ms.
"""

from __future__ import annotations

import pytest

from repro.transport.base import TransportKind
from repro.transport.reliable import AimdWindow, ReliableConnection

from test_reliable_wire_pin import A, B, Pair, ScriptedWire

LATENCY = ScriptedWire.LATENCY
ACK_DELAY = ReliableConnection.ACK_DELAY
KINDS = (TransportKind.TCP, TransportKind.SWP)


def acks_from(pair: Pair, src: int) -> list[tuple]:
    return [entry for entry in pair.wire.log
            if entry[1] == src and entry[3] == "ACK"]


def data_from(pair: Pair, src: int) -> list[tuple]:
    return [entry for entry in pair.wire.log
            if entry[1] == src and entry[3] == "DATA"]


def warm(pair: Pair, count: int = 16) -> None:
    """Open TCP's window (slow start) and settle the RTT estimate."""
    for index in range(count):
        pair.hosts[A].send("T", B, f"warm{index}", 100)
    pair.simulator.run(until=pair.simulator.now + 5.0)


@pytest.mark.parametrize("kind", KINDS)
def test_one_in_order_segment_is_acked_within_ack_delay(kind):
    pair = Pair(kind, {})
    pair.hosts[A].send("T", B, "only", 100)
    pair.simulator.run(until=1.0)
    (ack,) = acks_from(pair, B)
    assert ack[5] == 1
    assert 0.0 < ack[9] <= ACK_DELAY
    # Sent when the hold ran out, no later.
    assert float(ack[0]) == pytest.approx(LATENCY + ack[9])


@pytest.mark.parametrize("kind", KINDS)
def test_second_in_order_segment_is_acked_at_once(kind):
    pair = Pair(kind, {})
    pair.hosts[A].send("T", B, "one", 100)
    pair.hosts[A].send("T", B, "two", 100)
    pair.simulator.run(until=1.0)
    (ack,) = acks_from(pair, B)
    assert (float(ack[0]), ack[5], ack[9]) == (LATENCY, 2, 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_reply_to_a_second_segment_carries_the_ack_of_both(kind):
    pair = Pair(kind, {})
    b = pair.hosts[B]
    b.set_deliver_upcall(lambda src, payload, size, name:
                         payload == "two" and b.send("T", A, "reply", 40))
    pair.hosts[A].send("T", B, "one", 100)
    pair.hosts[A].send("T", B, "two", 100)
    pair.simulator.run(until=1.0)
    assert acks_from(pair, B) == []
    (reply,) = data_from(pair, B)
    assert (float(reply[0]), reply[5], reply[9]) == (LATENCY, 2, 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_gap_is_acked_at_once_and_triple_duplicate_fast_retransmits(kind):
    pair = Pair(kind, {(A, "DATA", 17, 0): "drop"})
    warm(pair)
    start = pair.simulator.now
    for index in range(8):
        pair.hosts[A].send("T", B, f"m{index}", 100)
    pair.simulator.run(until=start + 1.0)
    gap_acks = [entry for entry in acks_from(pair, B)
                if float(entry[0]) > start]
    # Seg 16 is held; 18..23 each answer at once with the duplicate ack=17.
    assert [entry[5] for entry in gap_acks[:6]] == [17] * 6
    assert {float(entry[0]) for entry in gap_acks[:6]} == {start + LATENCY}
    resent = [entry for entry in data_from(pair, A) if entry[4] == 17]
    assert len(resent) == 2
    # The third duplicate arrives one latency later: well inside the RTO.
    assert float(resent[1][0]) == pytest.approx(start + 2 * LATENCY)
    assert pair.hosts[A].get("T").stats.retransmissions == 1
    assert [d[3] for d in pair.delivered][-8:] == [f"m{i}" for i in range(8)]


@pytest.mark.parametrize("kind", KINDS)
def test_ping_pong_from_the_upcall_costs_two_packets_per_round_trip(kind):
    pair = Pair(kind, {})
    a, b = pair.hosts[A], pair.hosts[B]
    rounds = 10

    def on_a(src, payload, size, name):
        count = int(payload[4:]) + 1
        if count < rounds:
            a.send("T", B, f"ping{count}", 40)

    b.set_deliver_upcall(
        lambda src, payload, size, name: b.send("T", A, "pong" + payload[4:], 40))
    a.set_deliver_upcall(on_a)
    a.send("T", B, "ping0", 40)
    pair.simulator.run(until=5.0)
    log = pair.wire.log
    # Every ping and pong carries the ACK of the message it answers; only
    # the last pong's ACK goes alone, after the hold.
    assert len(log) == 2 * rounds + 1
    assert [entry[3] for entry in log] == ["DATA"] * (2 * rounds) + ["ACK"]
    # ping k acks pongs 0..k-1; pong k acks pings 0..k.
    assert all(entry[5] == entry[4] + (entry[1] == B) for entry in log[1:-1])


@pytest.mark.parametrize("kind", KINDS)
def test_rtt_estimate_excludes_the_ack_hold(kind):
    pair = Pair(kind, {})
    for index in range(20):
        pair.hosts[A].send("T", B, f"m{index}", 100)
        pair.simulator.run(until=pair.simulator.now + 1.0)
    assert all(entry[9] == pytest.approx(ACK_DELAY)
               for entry in acks_from(pair, B))
    connection = pair.hosts[A].get("T")._connection(B)
    assert connection.srtt == pytest.approx(2 * LATENCY)
    assert connection.rto == pytest.approx(
        max(connection.srtt + 4 * connection.rttvar,
            ReliableConnection.MIN_RTO) + ACK_DELAY)


def test_three_losses_in_one_window_halve_the_window_once(monkeypatch):
    calls: list[tuple[str, float]] = []
    for name in ("on_fast_retransmit", "on_timeout"):
        real = getattr(AimdWindow, name)
        monkeypatch.setattr(
            AimdWindow, name,
            lambda self, real=real, name=name: (calls.append((name, self.cwnd)),
                                                real(self))[1])
    pair = Pair(TransportKind.TCP, {(A, "DATA", 18, 0): "drop",
                                    (A, "DATA", 21, 0): "drop",
                                    (A, "DATA", 24, 0): "drop"})
    warm(pair)
    connection = pair.hosts[A].get("T")._connection(B)
    start = pair.simulator.now
    for index in range(12):
        pair.hosts[A].send("T", B, f"m{index}", 100)
    pair.simulator.run(until=start + ReliableConnection.MIN_RTO)
    assert [name for name, _ in calls] == ["on_fast_retransmit"]
    assert connection.policy.ssthresh == calls[0][1] / 2
    assert pair.hosts[A].get("T").stats.retransmissions == 3
    assert [d[3] for d in pair.delivered][-12:] == [f"m{i}" for i in range(12)]


@pytest.mark.parametrize("kind", KINDS)
def test_first_segment_after_a_long_cut_triggers_an_immediate_retransmit(kind):
    pair = Pair(kind, {})
    a, b = pair.hosts[A], pair.hosts[B]
    a.send("T", B, "before", 100)
    pair.simulator.run(until=1.0)
    pair.wire.cut = (1.0, 61.0)
    a.send("T", B, "during", 100)
    pair.simulator.run(until=62.0)
    connection = a.get("T")._connection(B)
    assert connection.backoffs >= 5 and connection.rto >= 16.0
    b.send("T", A, "hello", 100)
    pair.simulator.run(until=62.0 + 3 * LATENCY)
    resent = data_from(pair, A)[-1]
    assert (resent[4], float(resent[0])) == (1, pytest.approx(62.0 + LATENCY))
    assert [d[3] for d in pair.delivered if d[1] == B][-1] == "during"
    assert connection.backoffs == 0 and connection.rto < 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_close_with_an_ack_held_leaves_no_flush_timer(kind):
    pair = Pair(kind, {})
    pair.hosts[A].send("T", B, "only", 100)
    pair.simulator.run(until=1.5 * LATENCY)
    transport = pair.hosts[B].get("T")
    assert transport._held_acks
    assert pair.simulator.pending() == 2      # A's RTO, B's flush
    pair.hosts[B].shutdown()
    assert not transport._held_acks
    assert pair.simulator.pending() == 1      # A's RTO only
    pair.simulator.run(until=1.0)
    assert acks_from(pair, B) == []
