"""SocketUdpNetwork: the emulator surface over real loopback sockets."""

from __future__ import annotations

import asyncio
import logging
import socket
import struct

import pytest

from repro.network.emulator import NetworkEmulator
from repro.network.topology import transit_stub_topology
from repro.protocols import chord_agent
from repro.runtime.engine import Simulator
from repro.runtime.messages import Message, WireCodec, WireError
from repro.transport.base import Datagram, Segment, TransportKind
from repro.transport.demux import TransportHost
from repro.transport.reliable import ReliableConnection
from repro.transport.udp import SocketUdpNetwork

pytestmark = pytest.mark.live


def _free_ports(count: int) -> list[int]:
    """Ports the OS confirms are currently free (bound-and-released)."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@pytest.fixture()
def codec():
    return WireCodec.for_agents([chord_agent()])


def _pair(codec):
    ports = _free_ports(2)
    endpoints = {1: ("127.0.0.1", ports[0]), 2: ("127.0.0.1", ports[1])}
    return (SocketUdpNetwork(1, endpoints, codec),
            SocketUdpNetwork(2, endpoints, codec))


def _chord_message(fields=None, **kwargs) -> Message:
    chord_types = {t.name: t for t in chord_agent().MESSAGE_TYPES}
    return Message(type=chord_types["lookup"],
                   fields=fields or {"target": 99, "origin": 1, "purpose": 0,
                                     "idx": 4, "hops": 32},
                   protocol="chord", **kwargs)


async def _exchange(codec, packets, mutate=None):
    """Open a pair, deliver *packets* from node 1 to node 2, return arrivals."""
    left, right = _pair(codec)
    received = []
    right.set_receive_callback(2, received.append)
    await left.open()
    await right.open()
    if mutate is not None:
        mutate(left, right)
    try:
        from repro.network.packet import Packet
        for payload, size in packets:
            assert left.send(Packet(src=1, dst=2, payload=payload,
                                    size=size)) or mutate is not None
        for _ in range(50):
            if len(received) >= len(packets):
                break
            await asyncio.sleep(0.01)
        return left, right, received
    finally:
        left.close()
        right.close()


def test_datagram_frame_round_trips(codec):
    message = _chord_message()
    datagram = Datagram("CTRL", message, message.size)

    left, right, received = asyncio.run(
        _exchange(codec, [(datagram, message.size)]))
    assert len(received) == 1
    packet = received[0]
    assert packet.src == 1 and packet.dst == 2
    arrived = packet.payload
    assert type(arrived) is Datagram
    assert arrived.transport == "CTRL"
    assert arrived.size == message.size
    assert arrived.payload.fields == message.fields
    assert left.stats()["frames_sent"] == 1
    assert right.stats()["frames_received"] == 1


def test_segment_frame_preserves_reliable_envelope(codec):
    message = _chord_message()
    segment = Segment(transport="CTRL", kind="DATA", seq=17, payload=message,
                      size=message.size, ack=4, msg_id=5, chunk=1, chunks=3,
                      epoch=2, dest_epoch=1, ack_delay=0.0371)
    ack = Segment(transport="CTRL", kind="ACK", seq=0, ack=18, epoch=2,
                  ack_delay=0.1)

    _, _, received = asyncio.run(
        _exchange(codec, [(segment, message.size), (ack, 0)]))
    assert len(received) == 2
    data_seg = received[0].payload
    assert isinstance(data_seg, Segment)
    assert (data_seg.kind, data_seg.seq, data_seg.ack) == ("DATA", 17, 4)
    assert (data_seg.msg_id, data_seg.chunk, data_seg.chunks) == (5, 1, 3)
    assert (data_seg.epoch, data_seg.dest_epoch) == (2, 1)
    assert data_seg.ack_delay == 0.0371
    assert data_seg.payload.fields == message.fields
    ack_seg = received[1].payload
    assert (ack_seg.kind, ack_seg.ack, ack_seg.epoch) == ("ACK", 18, 2)
    assert ack_seg.ack_delay == 0.1


class _TimedPipe:
    """The in-memory pipe of ``bench/workloads.py``, with a fixed latency on
    a simulator clock so that the transport timers run as in the sim."""

    def __init__(self, simulator, peer, endpoint) -> None:
        self.simulator, self.peer, self.endpoint = simulator, peer, endpoint

    def sendto(self, data: bytes, endpoint=None) -> None:
        self.simulator.schedule(0.01, self.peer.datagram_received, data,
                                self.endpoint)

    def close(self) -> None:
        pass


class _SpiedSocket(SocketUdpNetwork):
    """Keeps every envelope it sends and every one it delivers."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sent: list = []
        self.arrived: list = []

    def send(self, packet, payload_tag=None) -> bool:
        self.sent.append(packet.payload)
        return super().send(packet, payload_tag)

    def set_receive_callback(self, address, receive) -> None:
        def spy(packet) -> None:
            self.arrived.append(packet.payload)
            receive(packet)
        super().set_receive_callback(address, spy)


def _tcp_ping_pong(simulator, networks, rounds: int) -> None:
    """Each side answers from its upcall: ``rounds`` pings, as many pongs."""
    (a, network_a), (b, network_b) = networks.items()
    host_a = TransportHost(simulator, network_a, a)
    host_b = TransportHost(simulator, network_b, b)
    for host in (host_a, host_b):
        host.declare(TransportKind.TCP, "T")

    def pong(src, payload, size, name) -> None:
        host_b.send("T", a, "pong" + payload[4:], 40)

    def ping(src, payload, size, name) -> None:
        count = int(payload[4:]) + 1
        if count < rounds:
            host_a.send("T", b, f"ping{count}", 40)

    host_b.set_deliver_upcall(pong)
    host_a.set_deliver_upcall(ping)
    host_a.send("T", b, "ping0", 40)
    simulator.run(until=5.0)


def test_tcp_ping_pong_sends_the_frames_the_sim_sends(codec):
    """Held and piggybacked ACKs behave the same over the live framing as
    over the emulator, and ``ack_delay`` crosses the wire intact."""
    rounds = 8
    simulator = Simulator(seed=3)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=3))
    _tcp_ping_pong(simulator, {emulator.attach_host().address: emulator
                               for _ in range(2)}, rounds)

    simulator = Simulator(seed=3)
    endpoints = {1: ("127.0.0.1", 1), 2: ("127.0.0.1", 2)}
    near, far = (_SpiedSocket(address, endpoints, codec)
                 for address in endpoints)
    near.connection_made(_TimedPipe(simulator, far, endpoints[1]))
    far.connection_made(_TimedPipe(simulator, near, endpoints[2]))
    _tcp_ping_pong(simulator, {1: near, 2: far}, rounds)

    # Every ping and pong carries an ACK; the last pong's goes alone.
    assert near.frames_sent + far.frames_sent \
        == emulator.stats.packets_sent == 2 * rounds + 1
    assert near.decode_errors == far.decode_errors == 0
    for sender, receiver in ((near, far), (far, near)):
        assert [(s.kind, s.seq, s.ack, s.ack_delay) for s in sender.sent] \
            == [(s.kind, s.seq, s.ack, s.ack_delay) for s in receiver.arrived]
    last = near.sent[-1]
    assert last.kind == "ACK"
    assert 0.0 < last.ack_delay <= ReliableConnection.ACK_DELAY


def test_unknown_destination_and_detached_host_drop(codec):
    async def scenario():
        left, right = _pair(codec)
        arrivals = []
        right.set_receive_callback(2, arrivals.append)
        await left.open()
        await right.open()
        try:
            from repro.network.packet import Packet
            datagram = Datagram("CTRL", None, 8)
            # Unknown destination: dropped, counted, no exception.
            assert left.send(Packet(src=1, dst=99, payload=datagram,
                                    size=8)) is False
            # Crashed ("detached") sender: outgoing traffic vanishes.
            left.detach_host(1)
            assert left.send(Packet(src=1, dst=2, payload=datagram,
                                    size=8)) is False
            left.reattach_host(1)
            assert left.send(Packet(src=1, dst=2, payload=datagram,
                                    size=8)) is True
            for _ in range(100):
                if arrivals:
                    break
                await asyncio.sleep(0.01)
            # Crashed receiver: arrivals fall on dead silicon.
            right.detach_host(2)
            left.send(Packet(src=1, dst=2, payload=datagram, size=8))
            await asyncio.sleep(0.05)
            return left, arrivals
        finally:
            left.close()
            right.close()

    left, arrivals = asyncio.run(scenario())
    assert left.send_drops == 2
    assert len(arrivals) == 1


def test_line_noise_is_counted_and_dropped(codec):
    """Garbage datagrams (port scans, version skew) must not kill the node."""
    async def scenario():
        left, right = _pair(codec)
        arrivals = []
        right.set_receive_callback(2, arrivals.append)
        await left.open()
        await right.open()
        try:
            host, port = right.endpoints[2]
            noise = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            noise.sendto(b"definitely not a frame", (host, port))
            noise.sendto(b"\xcd\x02\x00\x00\x00\x01truncated", (host, port))
            noise.close()
            from repro.network.packet import Packet
            message = _chord_message()
            left.send(Packet(src=1, dst=2,
                             payload=Datagram("CTRL", message, message.size),
                             size=message.size))
            for _ in range(50):
                if arrivals:
                    break
                await asyncio.sleep(0.01)
            return right, arrivals
        finally:
            left.close()
            right.close()

    right, arrivals = asyncio.run(scenario())
    assert right.decode_errors == 2
    assert len(arrivals) == 1   # the real frame still got through


def test_local_address_must_be_in_endpoint_map(codec):
    with pytest.raises(WireError, match="missing from the endpoint map"):
        SocketUdpNetwork(5, {1: ("127.0.0.1", 9)}, codec)
    network = SocketUdpNetwork(1, {1: ("127.0.0.1", 9)}, codec)
    with pytest.raises(WireError, match="cannot register"):
        network.set_receive_callback(2, lambda packet: None)


def test_the_socket_network_has_every_datagram_protocol_method(codec):
    # It is asyncio's protocol without subclassing it: the datagram transport
    # calls these, pause_writing/resume_writing under back-pressure.
    methods = [name for name in dir(asyncio.DatagramProtocol)
               if not name.startswith("_")]
    assert {"datagram_received", "pause_writing"} <= set(methods)
    network = SocketUdpNetwork(1, {1: ("127.0.0.1", 9)}, codec)
    for name in methods:
        assert callable(getattr(network, name)), name
    network.pause_writing()
    network.resume_writing()


def test_a_runt_datagram_is_logged_under_the_module_logger(codec, caplog):
    network = SocketUdpNetwork(1, {1: ("127.0.0.1", 9)}, codec)
    with caplog.at_level(logging.WARNING, logger="repro.transport.udp"):
        network.datagram_received(b"\xcd", ("127.0.0.1", 7))
    assert network.decode_errors == 1
    assert [(record.name, record.levelno, record.getMessage())
            for record in caplog.records] == [
        ("repro.transport.udp", logging.WARNING,
         "dropping runt datagram from ('127.0.0.1', 7)")]


class _FakeTransport:
    """Captures ``sendto`` calls instead of touching a socket."""

    def __init__(self):
        self.sent: list[bytes] = []

    def sendto(self, data, endpoint):
        self.sent.append(bytes(data))

    def close(self):
        pass


class _Clock:
    """A settable stand-in for a node's ``LiveDriver`` clock."""

    def __init__(self, now: float) -> None:
        self.now = now


def test_causal_log_rides_the_socket_on_the_spec_clock(codec):
    """The live carrier of :class:`CausalLog`, socket-free: the sender's
    tap stamps the packet and the frame carries its three fields; the
    receiver rebuilds them, delivers with the trace context set, and books
    the hop in spec seconds."""
    from repro.network.packet import Packet
    from repro.obs import CausalLog
    from repro.runtime.tracing import Tracer

    endpoints = {1: ("127.0.0.1", 1111), 2: ("127.0.0.1", 2222)}
    networks, logs, tracers = {}, {}, {}
    for address, now in ((1, 2.5), (2, 2.75)):
        network = networks[address] = SocketUdpNetwork(address, endpoints,
                                                       codec)
        network._transport = _FakeTransport()
        tracers[address] = Tracer()
        log = logs[address] = CausalLog(tracers[address], _Clock(now),
                                        first_id=address << 40)
        network.install_send_tap(log.tag)
        network.install_delivery_wrapper(log.wrap_delivery)
    message = _chord_message()

    def packet(src, dst):
        return Packet(src=src, dst=dst,
                      payload=Datagram("CTRL", message, message.size),
                      size=message.size)

    def untraced_frame(src):
        return b"".join((
            SocketUdpNetwork._HEADER.pack(SocketUdpNetwork.MAGIC,
                                          SocketUdpNetwork._FRAME_DATAGRAM,
                                          src),
            bytes([len("CTRL")]), b"CTRL",
            struct.pack("!II", message.size, 0),
            codec.encode_payload(message)))

    def trace_of(frame):
        magic, kind, _ = SocketUdpNetwork._HEADER.unpack_from(frame, 0)
        assert (magic, kind) == (SocketUdpNetwork.MAGIC,
                                 SocketUdpNetwork._FRAME_TRACE)
        return SocketUdpNetwork._TRACE.unpack_from(
            frame, SocketUdpNetwork._HEADER.size)

    # An untagged packet goes out in the untraced layout, byte for byte.
    plain = SocketUdpNetwork(1, endpoints, codec)
    plain._transport = _FakeTransport()
    assert plain.send(packet(1, 2))
    assert plain._transport.sent == [untraced_frame(1)]
    assert plain.traced_frames == 0

    # A tagged send: one kind-6 frame around the untraced one.
    left, right = networks[1], networks[2]
    assert left.send(packet(1, 2))
    (frame,) = left._transport.sent
    trace_id, hop, created_at = trace_of(frame)
    assert (trace_id, hop, created_at) == ((1 << 40) + 1, 0, 2.5)
    header = SocketUdpNetwork._HEADER.size + SocketUdpNetwork._TRACE.size
    assert frame[header:] == untraced_frame(1)
    assert left.traced_frames == 1

    # The receiver delivers under the trace: a send made in the callback
    # carries the same id one hop further.
    delivered = []

    def forward(arrived):
        delivered.append(arrived)
        right.send(packet(2, 1))

    right.set_receive_callback(2, forward)
    right.datagram_received(frame, endpoints[1])
    (arrived,) = delivered
    assert (arrived.trace_id, arrived.trace_hop, arrived.created_at) \
        == (trace_id, 0, 2.5)
    assert arrived.payload.payload.fields == message.fields
    assert trace_of(right._transport.sent[0])[:2] == (trace_id, 1)
    assert logs[2].ctx is None

    # The hop record: the receiver's clock minus the packet's created_at.
    (record,) = tracers[2].records(category="route_hop")
    assert record.time == 2.75 and record.node == 2
    assert record.data == {"trace_id": trace_id, "hop": 0, "src": 1,
                           "latency": 2.75 - 2.5}
    assert logs[2].report() == {"traces": 0, "hops": 1,
                                "hop_latencies": [2.75 - 2.5],
                                "max_hop": {trace_id: 0}}

    # A hop the frame's 16-bit field cannot hold goes out untraced.
    left._transport.sent.clear()
    logs[1].ctx = (trace_id, 0xFFFF)
    assert left.send(packet(1, 2))
    logs[1].ctx = None
    assert left._transport.sent == [untraced_frame(1)]
    assert left.traced_frames == 1
