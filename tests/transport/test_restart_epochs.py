"""Transport behaviour across fail-stop restarts (incarnation epochs).

A restarted host starts its reliable streams from sequence zero while peers
still hold pre-crash connection state.  Without the epoch handshake the two
sides deadlock on mismatched sequence numbers — or worse, a retransmission of
pre-crash traffic poisons the fresh receive window and later shadows a
genuine same-sequence segment.  These tests pin the reset semantics, and
that best-effort reassembly keeps a reborn sender's fragments apart from
its dead incarnation's.
"""

from __future__ import annotations

from repro.network.emulator import NetworkEmulator
from repro.network.topology import transit_stub_topology
from repro.runtime.engine import Simulator
from repro.transport.base import TransportKind
from repro.transport.demux import TransportHost


def build():
    simulator = Simulator(seed=21)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=21))
    p = emulator.attach_host().address
    x = emulator.attach_host().address
    return simulator, emulator, p, x


def tcp_host(simulator, emulator, address, inbox, epoch=0):
    host = TransportHost(simulator, emulator, address, epoch=epoch)
    host.declare(TransportKind.TCP, "T")
    host.set_deliver_upcall(
        lambda src, payload, size, name: inbox.append(payload))
    return host


def test_stale_pre_crash_retransmission_cannot_poison_fresh_stream():
    simulator, emulator, p, x = build()
    p_inbox, x_inbox = [], []
    host_p = tcp_host(simulator, emulator, p, p_inbox)
    host_x = tcp_host(simulator, emulator, x, x_inbox)

    # Established stream: two messages delivered normally.
    host_p.send("T", x, "a", 100)
    host_p.send("T", x, "b", 100)
    simulator.run(until=2.0)
    assert x_inbox == ["a", "b"]

    # X fail-stops; P keeps (re)transmitting "c" into the void.
    host_x.shutdown()
    emulator.detach_host(x)
    host_p.send("T", x, "c", 100)
    simulator.run(until=8.0)

    # X recovers with a bumped incarnation and a fresh transport subsystem.
    emulator.reattach_host(x)
    x_inbox2: list = []
    tcp_host(simulator, emulator, x, x_inbox2, epoch=1)
    # Let P's pending retransmission of the old-stream "c" hit the fresh
    # host: it must be challenged away, never buffered.
    simulator.run(until=40.0)
    assert x_inbox2 == []

    # New traffic flows on a fresh stream, in order, exactly once — and the
    # sequence slot the stale "c" occupied is not shadowed.
    for payload in ("d", "e", "f"):
        host_p.send("T", x, payload, 100)
    simulator.run(until=80.0)
    assert x_inbox2 == ["d", "e", "f"]


def test_restarted_sender_resets_peer_connection():
    simulator, emulator, p, x = build()
    p_inbox, x_inbox = [], []
    tcp_host(simulator, emulator, p, p_inbox)
    host_x = tcp_host(simulator, emulator, x, x_inbox)

    host_x.send("T", p, "one", 100)
    simulator.run(until=2.0)
    assert p_inbox == ["one"]

    # X restarts and immediately talks again from sequence zero: P must
    # reset rather than discard the new stream as duplicates.
    host_x.shutdown()
    emulator.detach_host(x)
    simulator.run(until=4.0)
    emulator.reattach_host(x)
    host_x2 = tcp_host(simulator, emulator, x, [], epoch=1)
    host_x2.send("T", p, "two", 100)
    host_x2.send("T", p, "three", 100)
    simulator.run(until=10.0)
    assert p_inbox == ["one", "two", "three"]


def test_reborn_peer_heard_by_datagram_gets_queued_messages_at_once():
    """A connection retransmitting into a dead incarnation must not hold
    new messages to the reborn peer until its backed-off RTO fires: one
    datagram from the peer tells the host, and the host resets every
    connection to it."""
    simulator, emulator, p, x = build()
    x_inbox: list = []

    def dual_host(address, inbox, epoch=0):
        host = TransportHost(simulator, emulator, address, epoch=epoch)
        host.declare(TransportKind.TCP, "T")
        host.declare(TransportKind.UDP, "U")
        host.set_deliver_upcall(lambda src, payload, size, name: inbox.append(
            (simulator.now, payload)))
        return host

    host_p = dual_host(p, [])
    host_x = dual_host(x, x_inbox)
    host_p.send("T", x, "a", 100)
    simulator.run(until=2.0)
    assert [payload for _, payload in x_inbox] == ["a"]
    connection = host_p.get("T")._connections[x]
    rtt = connection.srtt

    # X fail-stops; P backs off retransmitting "b" into the void.
    host_x.shutdown()
    emulator.detach_host(x)
    host_p.send("T", x, "b", 100)
    simulator.run(until=45.0)
    retransmissions = host_p.get("T").stats.retransmissions
    assert connection.rto > 10.0

    # X is reborn between two of P's retransmissions and sends a datagram.
    emulator.reattach_host(x)
    x_inbox.clear()
    dual_host(x, x_inbox, epoch=1).send("U", p, "hello", 100)
    simulator.run(until=45.5)
    host_p.send("T", x, "c", 100)
    simulator.run(until=45.5 + rtt)
    assert [payload for _, payload in x_inbox] == ["c"]
    assert host_p.peer_epochs[x] == 1
    assert host_p.get("T").stats.retransmissions == retransmissions


class _Wire:
    """An emulator stand-in that keeps every packet sent into it."""

    def __init__(self) -> None:
        self.packets: list = []

    def set_receive_callback(self, address, receive) -> None:
        pass

    def send(self, packet, payload_tag=None) -> bool:
        self.packets.append(packet)
        return True


def udp_host(wire, address, epoch=0):
    host = TransportHost(None, wire, address, epoch=epoch)
    host.declare(TransportKind.UDP, "U")
    return host


def test_udp_reassembly_tells_a_reborn_sender_from_its_dead_incarnation():
    """A reborn sender's fresh transport restarts its message ids, so only
    the epoch keeps its fragments out of what its dead incarnation left."""
    wire = _Wire()
    udp_host(wire, 1).send("U", 2, "OLD", 3000)
    udp_host(wire, 1, epoch=1).send("U", 2, "NEW", 3000)
    old, new = wire.packets[:3], wire.packets[3:]
    assert [packet.payload.msg_id for packet in old + new] == [1] * 6

    receiver = udp_host(wire, 2)
    reassembly = receiver.get("U")._reassembly
    inbox: list = []
    receiver.set_deliver_upcall(
        lambda src, payload, size, name: inbox.append((payload, size)))
    # The old message loses chunk 1; the new one's chunk 0 is late.
    for packet in (old[0], old[2], new[1], new[2]):
        receiver._on_packet(packet)
    assert inbox == []
    # The dead incarnation's partial message is dropped, not kept forever.
    assert [key[1] for key in reassembly] == [1]
    receiver._on_packet(new[0])
    assert inbox == [("NEW", 3000)]
    assert reassembly == {}
    # A late fragment from the dead incarnation opens no entry.
    receiver._on_packet(old[1])
    assert inbox == [("NEW", 3000)]
    assert reassembly == {}
