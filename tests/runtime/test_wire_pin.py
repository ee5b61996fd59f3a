"""Byte-level pin of the live wire format (the method of
``tests/transport/test_reliable_wire_pin.py``, applied to the codec).

A seeded corpus — every message type of all nine bundled stacks plus a
synthetic type covering every field type as scalar and as list, each with
empty lists, all-default fields and random values, cycling through fourteen
payload shapes — is encoded as a message, wrapped inside a message, nested
message-in-message and as a bare payload block, and every frame
:class:`SocketUdpNetwork.send` emits for it (Datagram, Segment, raw,
fragments) is captured.  ``CORPUS_SHA256`` is the digest of all of those
bytes as the code *before* the one-plan-per-message-type codec produced
them (that refactor was meant to move no byte on the wire), re-pinned once
when segment frames gained ``ack_delay``; a change that claims to move no
byte may not edit it.  Every corpus message must also decode back to the
same type, fields and payload, through the codec and through a receiving
socket; one last message pins the coercions encode applies (masking,
``None``, ``str()``).
"""

from __future__ import annotations

import hashlib
import random
import struct
from pathlib import Path

from repro.apps.payload import AppPayload, KvPayload, TopicPayload
from repro.codegen.registry import get_registry
from repro.network.packet import Packet
from repro.protocols import BUNDLED_PROTOCOLS
from repro.runtime import messages
from repro.runtime.messages import (FIELD_FORMATS, FIELD_TYPE_SIZES,
                                    PRIMITIVE_PAYLOADS, RECORD_PAYLOADS,
                                    FieldSpec, Message, MessageCatalog,
                                    MessageType, WireCodec)
from repro.runtime.node import _Heartbeat
from repro.transport.base import Datagram, Segment
from repro.transport.udp import FRAGMENT_THRESHOLD, SocketUdpNetwork

#: sha256 over the corpus, computed on the commit before the codec refactor,
#: re-pinned when segment frames gained ``ack_delay``, when Chord's
#: ``lookup_reply`` gained ``succs``, when Pastry's messages became those
#: of prefix routing (every other stack's types encode byte-identically), and
#: when datagram frames gained the sender's epoch.
CORPUS_SHA256 = "15add41efcf106b93ac404edc9bb3f4cfa9dfdb733a9b45eb2187e6faf8aa49a"

#: Every field type, as a scalar and as a list (no bundled spec uses strings).
EVERYTHING = MessageType("everything", tuple(
    FieldSpec(f"{type_name}_{'list' if is_list else 'one'}", type_name, is_list)
    for type_name in ("int", "long", "double", "float", "bool", "key",
                      "ipaddr", "string", "neighbor")
    for is_list in (False, True)))

#: ``(payload, declared payload_size)``: every payload class the codec knows,
#: undersized (zero-padded) and oversized (content wins) declarations both.
PAYLOAD_SHAPES = (
    (None, 0), (None, 300), (b"", 0), (bytearray(b"\x00\xffbytes"), 100),
    ("text hé€", 64), (12345, 64), (-7, 2), (2.5, 64), (True, 64),
    (AppPayload(seqno=12, sent_at=34.5, source=6, size=1000, stream_id=9), 1000),
    (KvPayload(op=5, key=2**32 - 1, version=-1, seqno=2**60, sent_at=12.25,
               source=3, replier=9, size=100, stream_id=7001), 100),
    (TopicPayload(topic=2**31, seqno=-1, sent_at=3.5, source=4, size=500,
                  stream_id=7001), 500),
    (_Heartbeat(kind="ping"), 8), (_Heartbeat(kind="pong"), 8),
)

_DEFAULTS = {"double": 0.0, "float": 0.0, "bool": False, "string": ""}


def _random_value(type_name: str, rng: random.Random):
    if type_name == "int":
        return rng.randint(-(2**31), 2**31 - 1)
    if type_name == "long":
        return rng.randint(-(2**63), 2**63 - 1)
    if type_name in ("double", "float"):   # exact in float32 too
        return rng.choice([0.0, 0.5, -123.25, 4096.0])
    if type_name == "bool":
        return rng.random() < 0.5
    if type_name in ("key", "ipaddr"):
        return rng.randrange(2**32)
    if type_name == "neighbor":
        return rng.randrange(2**64)
    assert type_name == "string", type_name
    return "".join(rng.choice("abcdé€") for _ in range(rng.randrange(8)))


def _variants(message_type: MessageType, rng: random.Random) -> list[dict]:
    """Empty lists beside random scalars, nothing set, everything random."""
    empty = {spec.name: [] if spec.is_list
             else _random_value(spec.type_name, rng)
             for spec in message_type.fields}
    full = {spec.name: [_random_value(spec.type_name, rng)
                        for _ in range(rng.randrange(1, 6))] if spec.is_list
            else _random_value(spec.type_name, rng)
            for spec in message_type.fields}
    return [empty, {}, full]


def _decoded_fields(message_type: MessageType, fields) -> dict:
    """What *fields* reads as on the far side: unset scalars are zero (a
    field left unset reads None on the message, like an absent key)."""
    return {spec.name: ([] if spec.is_list
                        else _DEFAULTS.get(spec.type_name, 0))
            if fields.get(spec.name) is None else fields[spec.name]
            for spec in message_type.fields}


def _same(got, want, types: dict) -> bool:
    """Whether *got* is what *want* decodes to (messages have no ``==``)."""
    if isinstance(want, Message):
        message_type = types[want.protocol, want.name]
        return (type(got) is type(want) and got.name == want.name
                and got.routed == want.routed and got.type is message_type
                and got.protocol == want.protocol
                and got.fields == _decoded_fields(message_type, want.fields)
                and got.payload_size == want.payload_size
                and _same(got.payload, want.payload, types))
    return type(got) is type(bytes(want) if isinstance(want, bytearray)
                             else want) and got == want


class _Capture:
    """Datagram transport stand-in: records frames, feeds them to a peer."""

    def __init__(self, peer: SocketUdpNetwork, frames: list) -> None:
        self.peer, self.frames = peer, frames

    def sendto(self, data: bytes, endpoint=None) -> None:
        self.frames.append(data)
        self.peer.datagram_received(data, ("127.0.0.1", 1))

    def close(self) -> None:
        pass


def _stacks():
    for protocol in BUNDLED_PROTOCOLS:
        stack = get_registry().load_stack(protocol)
        yield (WireCodec.for_agents(stack),
               [(cls.PROTOCOL, t) for cls in stack for t in cls.MESSAGE_TYPES])
    yield (WireCodec({"everything": MessageCatalog([EVERYTHING])}),
           [("everything", EVERYTHING)])


def corpus_digest() -> tuple[str, int]:
    rng = random.Random("corpus")
    digest = hashlib.sha256()
    count = 0
    big = rng.randbytes(FRAGMENT_THRESHOLD + 10_000)
    for codec, typed in _stacks():
        endpoints = {1: ("127.0.0.1", 1), 2: ("127.0.0.1", 2)}
        near = SocketUdpNetwork(1, endpoints, codec)
        far = SocketUdpNetwork(2, endpoints, codec)
        frames: list[bytes] = []
        received: list[Packet] = []
        near.connection_made(_Capture(far, frames))
        far.set_receive_callback(2, received.append)
        carrier_protocol, carrier = typed[0]
        types = {(protocol, t.name): t for protocol, t in typed}
        for protocol, message_type in typed:
            for fields in _variants(message_type, rng):
                payload, payload_size = PAYLOAD_SHAPES[
                    count % len(PAYLOAD_SHAPES)]
                if count % 97 == 0:   # now and then, one that must fragment
                    payload, payload_size = big, len(big)
                count += 1
                message = Message(type=message_type, fields=dict(fields),
                                  payload=payload, payload_size=payload_size,
                                  priority=rng.choice([-1, 0, 1, 2]),
                                  protocol=protocol)
                wrapped = Message(type=message_type, fields=dict(fields),
                                  payload=payload,
                                  payload_size=min(payload_size, 0xFFFF),
                                  source=rng.randrange(1, 2**32),
                                  protocol=protocol, routed=True)
                in_wrapped = Message(type=carrier, payload=wrapped,
                                     payload_size=wrapped.size,
                                     protocol=carrier_protocol)
                in_message = Message(type=carrier, payload=message,
                                     payload_size=message.size,
                                     protocol=carrier_protocol)
                for item in (message, in_wrapped, in_message):
                    encoded = codec.encode_message(item)
                    digest.update(encoded)
                    decoded, end = codec.decode_message(encoded)
                    assert end == len(encoded)
                    assert decoded.priority == item.priority
                    assert _same(decoded, item, types), \
                        (protocol, message_type.name)
                for item in (payload, message, wrapped):
                    block = codec.encode_payload(item)
                    digest.update(block)
                    decoded, end = codec.decode_payload(block)
                    assert end == len(block)
                    assert _same(decoded, item, types), \
                        (protocol, message_type.name)
                for envelope in (
                        Datagram("CTRL", message, message.size),
                        Segment("BULK", "DATA", seq=count, payload=message,
                                size=message.size, ack=count - 1,
                                msg_id=count * 7, chunk=1, chunks=3,
                                epoch=2, dest_epoch=1, ack_delay=0.0625),
                        Segment("BULK", "ACK", ack=count, epoch=3,
                                ack_delay=count / 1024),
                        message):
                    assert near.send(Packet(src=1, dst=2, payload=envelope,
                                            size=message.size))
                    got = received.pop().payload
                    assert not received
                    if envelope is not message:
                        assert type(got) is type(envelope)
                        assert all(
                            getattr(got, slot) == getattr(envelope, slot)
                            for slot in type(envelope).__slots__
                            if slot != "payload")
                        got, envelope = got.payload, envelope.payload
                    assert _same(got, envelope, types), \
                        (protocol, message_type.name)
        for frame in frames:
            digest.update(frame)
        assert far.decode_errors == 0 and near.send_drops == 0
        assert (near.fragments_sent > 0) == (far.fragments_received > 0)
    # The coercions the encoder applies: an unsigned scalar masks to its
    # width, a None list item is zero, a string field takes str() of anything.
    given = {
        "key_one": 2**32 + 5, "neighbor_one": -1, "ipaddr_one": 7.0,
        "bool_one": None, "int_list": [None, 3], "double_list": [None],
        "string_one": 42, "string_list": [1, "x"]}
    coerced = Message(type=EVERYTHING, protocol="everything", fields=given)
    encoded = codec.encode_message(coerced)
    digest.update(encoded)
    assert len(encoded) == coerced.size
    decoded = codec.decode_message(encoded)[0].fields
    assert {name: decoded[name] for name in given} == {
        "key_one": 5, "neighbor_one": 2**64 - 1, "ipaddr_one": 7,
        "bool_one": False, "int_list": [0, 3], "double_list": [0.0],
        "string_one": "42", "string_list": ["1", "x"]}
    return digest.hexdigest(), count


def test_wire_bytes_are_pinned_and_every_corpus_message_round_trips():
    digest, count = corpus_digest()
    assert count >= 250   # 87 message types x 3 field variants
    assert digest == CORPUS_SHA256


def _doc_tables() -> dict[str, list[list[str]]]:
    """The tables of docs/LIVE.md's "Wire format" section, by bold heading:
    the body rows of each, every row its cells without the backquotes."""
    text = (Path(__file__).parents[2] / "docs" / "LIVE.md").read_text("utf-8")
    section = text.split("\n## Wire format\n", 1)[1].split("\n## ", 1)[0]
    tables: dict[str, list[list[str]]] = {}
    for part in section.split("\n**")[1:]:
        heading, _, body = part.partition("**")
        tables[heading] = [
            [cell.strip().replace("`", "") for cell in line.strip("|").split("|")]
            for line in body.splitlines() if line.startswith("|")
        ][2:]   # minus the header row and its rule
    return tables


def test_live_md_wire_format_section_is_a_view_of_the_code_tables():
    """The doc cannot drift: every field type, payload tag and frame kind of
    the code tables has its row, with the code's format and byte count."""
    tables = _doc_tables()
    field_rows = {row[0]: row[1:] for row in tables["Field types"]}
    for name, fmt in FIELD_FORMATS.items():
        documented_format, documented_bytes = field_rows[name]
        assert documented_format == (fmt or "—"), name
        assert documented_bytes.split()[0] == str(FIELD_TYPE_SIZES[name]), name

    payload_rows = {row[0]: row[1:] for row in tables["Payload tags"]}
    arms = {value for name, value in vars(messages).items()
            if name.startswith("_P_")}
    tabled = {**{cls.__name__: row for cls, row in PRIMITIVE_PAYLOADS.items()},
              **RECORD_PAYLOADS}
    tags = arms | {tag for tag, _ in tabled.values()}
    assert len(tags) == len(arms) + len(tabled), "two payloads share a tag"
    assert set(payload_rows) == {str(tag) for tag in tags}
    for name, (tag, fmt) in tabled.items():
        documented_class, content, documented_bytes = payload_rows[str(tag)]
        assert documented_class == name
        assert content.split(":")[0].split()[0] == fmt, name
        assert documented_bytes == str(struct.calcsize("!" + fmt)), name

    kinds = {value for name, value in vars(SocketUdpNetwork).items()
             if name.startswith("_FRAME_")}
    assert {row[0] for row in tables["Frame kinds"]} \
        == {str(kind) for kind in kinds}
