"""Datagram fragmentation: frames over 60 kB split, reassemble, time out.

These tests run socket-free: a fake transport captures what the sender
would put on the wire, and the captured datagrams are fed straight into the
receiver's ``datagram_received`` — same code path as a real socket, no
event loop, no ports.
"""

from __future__ import annotations

import struct
import time

import pytest

from repro.network.packet import Packet
from repro.protocols import chord_agent
from repro.runtime.messages import Message, WireCodec
from repro.transport.base import Datagram
from repro.transport.udp import (FRAGMENT_THRESHOLD, FRAGMENT_TIMEOUT,
                                 SocketUdpNetwork)

pytestmark = pytest.mark.live

#: Bytes of Datagram framing around a bytes payload: header (6) + transport
#: name length byte + "CTRL" (4) + declared size (4) + epoch (4) + payload
#: type tag (1) + payload length prefix (4).
_DATAGRAM_OVERHEAD = 24


class _FakeTransport:
    """Captures ``sendto`` calls instead of touching a socket."""

    def __init__(self):
        self.sent: list[tuple[bytes, tuple]] = []

    def sendto(self, data, endpoint):
        self.sent.append((bytes(data), endpoint))

    def close(self):
        pass


def _pair():
    codec = WireCodec.for_agents([chord_agent()])
    endpoints = {1: ("127.0.0.1", 1111), 2: ("127.0.0.1", 2222)}
    left = SocketUdpNetwork(1, endpoints, codec)
    left._transport = _FakeTransport()
    right = SocketUdpNetwork(2, endpoints, codec)
    received: list[Packet] = []
    right.set_receive_callback(2, received.append)
    return left, right, received


def _send_bytes(left, payload: bytes, epoch: int = 0) -> list[bytes]:
    """Send one bytes-payload Datagram; return the wire datagrams."""
    left._transport.sent.clear()
    datagram = Datagram("CTRL", payload, len(payload), epoch)
    assert left.send(Packet(src=1, dst=2, payload=datagram,
                            size=len(payload))) is True
    return [data for data, _ in left._transport.sent]


def test_sub_cap_frame_is_one_datagram_with_the_pinned_layout():
    """Frames under the threshold go out as one datagram, byte-identical to
    the hand-packed layout of docs/LIVE.md "Wire format", the sender's
    epoch behind the declared size."""
    left, right, received = _pair()
    payload = bytes(range(256)) * 4                       # 1 KiB
    wire = _send_bytes(left, payload, epoch=3)
    assert len(wire) == 1
    assert left.fragments_sent == 0

    expected = b"".join((
        SocketUdpNetwork._HEADER.pack(SocketUdpNetwork.MAGIC,
                                      SocketUdpNetwork._FRAME_DATAGRAM, 1),
        bytes([len("CTRL")]), b"CTRL",
        struct.pack("!II", len(payload), 3),
        left.codec.encode_payload(payload),
    ))
    assert wire[0] == expected

    right.datagram_received(wire[0], ("127.0.0.1", 1111))
    assert len(received) == 1
    assert received[0].payload.payload == payload
    assert received[0].payload.epoch == 3
    assert right.fragments_received == 0


def test_frame_exactly_at_threshold_is_not_fragmented():
    left, right, received = _pair()
    payload = b"\xAB" * (FRAGMENT_THRESHOLD - _DATAGRAM_OVERHEAD)
    wire = _send_bytes(left, payload)
    assert len(wire) == 1
    assert len(wire[0]) == FRAGMENT_THRESHOLD
    assert left.fragments_sent == 0
    right.datagram_received(wire[0], ("127.0.0.1", 1111))
    assert received[0].payload.payload == payload


def test_oversized_frame_fragments_and_reassembles():
    left, right, received = _pair()
    payload = bytes(i & 0xFF for i in range(150_000))     # over two fragments
    wire = _send_bytes(left, payload)
    assert len(wire) == 3
    assert left.fragments_sent == 3
    for datagram in wire:
        assert len(datagram) <= FRAGMENT_THRESHOLD
        assert datagram[1] == SocketUdpNetwork._FRAME_FRAGMENT
    # Arrival order does not matter (UDP reorders freely).
    for datagram in reversed(wire):
        right.datagram_received(datagram, ("127.0.0.1", 1111))
    assert len(received) == 1
    arrived = received[0].payload
    assert arrived.transport == "CTRL"
    assert arrived.size == len(payload)
    assert arrived.payload == payload
    assert right.fragments_received == 3
    assert right._pending_fragments == {}


def test_lost_fragment_times_out_without_blocking_later_messages():
    left, right, received = _pair()
    first = _send_bytes(left, b"\x01" * 150_000)
    assert len(first) == 3
    # Lose the middle fragment: the message must never be delivered and its
    # buffer must be garbage-collected, IP-style.
    right.datagram_received(first[0], ("127.0.0.1", 1111))
    right.datagram_received(first[2], ("127.0.0.1", 1111))
    assert received == []
    assert len(right._pending_fragments) == 1
    right._gc_fragments(time.monotonic() + FRAGMENT_TIMEOUT + 1.0)
    assert right._pending_fragments == {}
    assert right.reassembly_timeouts == 1

    # A fresh message (new fragment id) reassembles cleanly afterwards.
    payload = b"\x02" * 150_000
    for datagram in _send_bytes(left, payload):
        right.datagram_received(datagram, ("127.0.0.1", 1111))
    assert len(received) == 1
    assert received[0].payload.payload == payload


def test_fragment_count_mismatch_is_line_noise_not_a_crash():
    left, right, received = _pair()
    wire = _send_bytes(left, b"\x03" * 150_000)
    right.datagram_received(wire[0], ("127.0.0.1", 1111))
    # Forge a fragment with the same id but a different count.
    _, _, src, frag_id, index, count = SocketUdpNetwork._FRAGMENT.unpack_from(
        wire[1], 0)
    forged = SocketUdpNetwork._FRAGMENT.pack(
        SocketUdpNetwork.MAGIC, SocketUdpNetwork._FRAME_FRAGMENT, src,
        frag_id, index, count + 7) + b"garbage"
    right.datagram_received(forged, ("127.0.0.1", 1111))
    assert received == []
    assert right.decode_errors == 1


def test_a_frame_ends_where_its_datagram_ends():
    """A datagram cut inside a message's zero padding, and one with junk
    behind a whole frame, are line noise — each one decode error, nothing
    delivered (both used to decode as if intact)."""
    left, right, received = _pair()
    data_type = {t.name: t for t in chord_agent().MESSAGE_TYPES}["data"]
    message = Message(type=data_type, fields={"target": 1, "hops": 2},
                      payload=None, payload_size=1000, protocol="chord")
    left._transport.sent.clear()
    assert left.send(Packet(src=1, dst=2, size=message.size,
                            payload=Datagram("CTRL", message, message.size)))
    (frame, _), = left._transport.sent
    right.datagram_received(frame[:-500], ("127.0.0.1", 1111))
    assert right.decode_errors == 1
    right.datagram_received(frame + b"junk", ("127.0.0.1", 1111))
    assert right.decode_errors == 2
    assert received == []
    right.datagram_received(frame, ("127.0.0.1", 1111))
    assert right.decode_errors == 2 and len(received) == 1
    assert received[0].payload.payload.payload_size == 1000


@pytest.mark.parametrize("kind", [bytearray, memoryview])
def test_a_bytes_like_payload_fragments_and_arrives_as_bytes(kind):
    """The frame is joined from parts and sliced through a memoryview; a
    payload that is itself a bytearray or a memoryview must cross that, and
    reassembly, equal to the same bytes."""
    left, right, received = _pair()
    payload = bytes(i * 7 & 0xFF for i in range(FRAGMENT_THRESHOLD + 25_000))
    wire = _send_bytes(left, kind(payload))
    assert len(wire) == 2 and left.fragments_sent == 2
    # The same datagrams as the bytes payload's, but for the fragment id.
    assert [datagram[:6] + datagram[10:] for datagram in wire] == [
        datagram[:6] + datagram[10:] for datagram in _send_bytes(left, payload)]
    for datagram in wire:
        right.datagram_received(datagram, ("127.0.0.1", 1111))
    assert len(received) == 1 and right.decode_errors == 0
    assert type(received[0].payload.payload) is bytes
    assert received[0].payload.payload == payload


class _FakeLoop:
    """Records ``call_later`` instead of waiting."""

    def __init__(self):
        self.later: list[tuple] = []

    def call_later(self, delay, callback, *args):
        self.later.append((delay, callback, args))


def test_unseen_transport_name_and_delayed_delivery():
    """The receive side resolves a transport name it has never seen (and
    never sent on), then the same name again; and a datagram held back by a
    ``degrade`` rule is decoded when the loop releases it, from the raw
    datagram (its header is parsed again then)."""
    left, right, received = _pair()
    for _ in range(2):
        assert left.send(Packet(src=1, dst=2, size=5,
                                payload=Datagram("NEVER_SENT_HERE", b"hello", 5)))
    first, second = [data for data, _ in left._transport.sent]
    right.datagram_received(first, ("127.0.0.1", 1111))
    right.datagram_received(second, ("127.0.0.1", 1111))
    assert [p.payload.transport for p in received] == ["NEVER_SENT_HERE"] * 2
    assert [p.payload.payload for p in received] == [b"hello"] * 2

    right._loop = _FakeLoop()
    right.faults.degrade_node(0, 1.0, 100.0)   # capped: 0.25 s, no loss
    right.datagram_received(first, ("127.0.0.1", 1111))
    assert len(received) == 2            # held back, not delivered
    (delay, callback, args), = right._loop.later
    assert delay == 0.25
    callback(*args)
    assert len(received) == 3 and received[2].src == 1
    assert received[2].payload.transport == "NEVER_SENT_HERE"
    assert right.decode_errors == 0
