"""Wire-codec property tests: the size model made real.

Every bundled specification's message types must round-trip through
:class:`repro.runtime.messages.WireCodec` — including empty lists, max-width
scalars, and nested wrapped messages — and the encoded byte length must equal
the spec-compile-time wire-size model (``MessageType.size_of``), which is
what lets live datagrams occupy exactly the bytes the emulator charges in
simulation.
"""

from __future__ import annotations

import pickle
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.payload import AppPayload
from repro.codegen.registry import get_registry
from repro.network.packet import Packet
from repro.protocols import BUNDLED_PROTOCOLS
from repro.runtime.messages import (FIELD_FORMATS, FIELD_TYPE_SIZES,
                                    MESSAGE_HEADER_BYTES, FieldSpec, Message,
                                    MessageCatalog, MessageType, WireCodec,
                                    WireError, WrappedMessage, emit_codec,
                                    wire_id)
from repro.transport.base import Datagram
from repro.transport.udp import SocketUdpNetwork

#: Value generators per field type; each returns (edge values, random value).
_EDGE_VALUES = {
    "int": [0, 1, -1, 2**31 - 1, -(2**31)],
    "long": [0, 1, -1, 2**63 - 1, -(2**63)],
    "double": [0.0, -1.5, 1e300, -1e-300],
    "float": [0.0, 1.5, -2.0],
    "bool": [True, False],
    "key": [0, 1, 2**32 - 1],
    "ipaddr": [0, 1, 2**32 - 1],
    "neighbor": [0, 1, 2**64 - 1],
    "string": ["", "x", "hé€llo", "a" * 200],
}


def _random_value(type_name: str, rng: random.Random):
    if type_name in ("int",):
        return rng.randint(-(2**31), 2**31 - 1)
    if type_name == "long":
        return rng.randint(-(2**63), 2**63 - 1)
    if type_name in ("double", "float"):
        return rng.choice([0.0, 0.5, -123.25, 4096.0])
    if type_name == "bool":
        return rng.random() < 0.5
    if type_name in ("key", "ipaddr"):
        return rng.randrange(2**32)
    if type_name == "neighbor":
        return rng.randrange(2**64)
    if type_name == "string":
        return "".join(rng.choice("abcdefghij") for _ in range(rng.randrange(8)))
    raise AssertionError(type_name)


def _fill_fields(message_type: MessageType, rng: random.Random,
                 lists_empty: bool = False) -> dict:
    fields = {}
    for spec in message_type.fields:
        if spec.is_list:
            if lists_empty:
                fields[spec.name] = []
            else:
                fields[spec.name] = [_random_value(spec.type_name, rng)
                                     for _ in range(rng.randrange(1, 6))]
        else:
            fields[spec.name] = _random_value(spec.type_name, rng)
    return fields


def _stack_and_codec(protocol: str):
    stack = get_registry().load_stack(protocol)
    return stack, WireCodec.for_agents(stack)


@pytest.mark.parametrize("protocol", BUNDLED_PROTOCOLS)
def test_every_spec_message_round_trips_at_model_size(protocol):
    """Seeded property sweep: random field values for every message type."""
    stack, codec = _stack_and_codec(protocol)
    rng = random.Random(f"wire:{protocol}")
    for agent_class in stack:
        for message_type in agent_class.MESSAGE_TYPES:
            for trial in range(8):
                fields = _fill_fields(message_type, rng,
                                      lists_empty=(trial == 0))
                message = Message(type=message_type, fields=fields,
                                  priority=rng.choice([-1, 0, 1, 2]),
                                  protocol=agent_class.PROTOCOL)
                encoded = codec.encode_message(message)
                # The headline property: wire bytes == the size model.
                assert len(encoded) == message.size, \
                    (protocol, message_type.name, fields)
                decoded, end = codec.decode_message(encoded)
                assert end == len(encoded)
                assert decoded.protocol == agent_class.PROTOCOL
                assert decoded.type is message_type
                assert decoded.priority == message.priority
                for spec in message_type.fields:
                    got, want = decoded.fields[spec.name], fields[spec.name]
                    if spec.type_name in ("double", "float") \
                            and not spec.is_list:
                        assert got == pytest.approx(want)
                    else:
                        assert got == want, (message_type.name, spec.name)


@pytest.mark.parametrize("protocol", BUNDLED_PROTOCOLS)
def test_max_width_scalars_round_trip(protocol):
    stack, codec = _stack_and_codec(protocol)
    for agent_class in stack:
        for message_type in agent_class.MESSAGE_TYPES:
            fields = {}
            for spec in message_type.fields:
                edges = _EDGE_VALUES[spec.type_name]
                fields[spec.name] = list(edges) if spec.is_list else edges[-1]
            message = Message(type=message_type, fields=fields,
                              protocol=agent_class.PROTOCOL)
            encoded = codec.encode_message(message)
            assert len(encoded) == message.size
            decoded, _ = codec.decode_message(encoded)
            assert decoded.fields == fields


@pytest.mark.parametrize("protocol", ["chord", "scribe"])
def test_a_message_that_has_been_on_the_wire_still_pickles(protocol):
    """A message pickles with its type by value, and the registry shares
    its types between every run in the process, so using a codec must leave
    nothing unpicklable behind on a type (it once cached its
    ``struct.Struct`` plan there, and every later pickle died)."""
    stack, codec = _stack_and_codec(protocol)
    rng = random.Random(f"pickle:{protocol}")
    for agent_class in stack:
        for message_type in agent_class.MESSAGE_TYPES:
            message = Message(type=message_type,
                              fields=_fill_fields(message_type, rng),
                              payload=b"tail", payload_size=16,
                              protocol=agent_class.PROTOCOL)
            encoded = codec.encode_message(message)
            codec.decode_message(encoded)
            copy = pickle.loads(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
            assert copy.type.name == message_type.name
            assert copy.fields == message.fields
            assert copy.size == message.size == len(encoded)
            assert codec.encode_message(copy) == encoded


def test_a_sim_run_is_unchanged_by_a_codec_over_its_stack():
    """The simulator and the live codec share the registry's message types:
    compiling a codec and putting one message of each type on the wire
    must leave the next simulated run exactly as it was."""
    from repro.eval.library import resolve_protocol
    from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel

    spec = ScenarioSpec(
        name="after-the-wire", agents=resolve_protocol("chord"),
        num_nodes=12, duration=30.0, seed=7,
        models=(ChurnModel(join="staggered", join_spacing=0.1),
                WorkloadModel(kind="route", source=-1, start=15.0,
                              packets=8, gap=0.5)))
    before = spec.run()
    stack = spec.agents()
    codec = WireCodec.for_agents(stack)
    for agent_class in stack:
        for message_type in agent_class.MESSAGE_TYPES:
            encoded = codec.encode_message(Message(
                type=message_type, protocol=agent_class.PROTOCOL))
            assert codec.decode_message(encoded)[0].type is message_type
    after = spec.run()
    assert repr(after.metrics) == repr(before.metrics)
    assert after.events == before.events


def test_wrapped_message_nests_at_model_size():
    """A Scribe control message wrapped inside a Pastry data message (the
    layering wire path) encodes to exactly the outer message's model size."""
    stack, codec = _stack_and_codec("scribe")
    pastry, scribe = stack
    scribe_types = {t.name: t for t in scribe.MESSAGE_TYPES}
    pastry_types = {t.name: t for t in pastry.MESSAGE_TYPES}
    join_type = scribe_types["join"]
    inner_fields = {"gid": 77, "member": 4}
    wrapped = WrappedMessage(
        protocol="scribe", name="join", fields=dict(inner_fields),
        payload=None, payload_size=0, source=42, source_key=9,
        size=join_type.size_of(inner_fields, 0))
    outer_type = pastry_types["pdata"]
    outer = Message(type=outer_type, fields={}, payload=wrapped,
                    payload_size=wrapped.size, protocol="pastry")
    encoded = codec.encode_message(outer)
    assert len(encoded) == outer.size
    decoded, _ = codec.decode_message(encoded)
    inner = decoded.payload
    assert isinstance(inner, WrappedMessage)
    assert inner.protocol == "scribe" and inner.name == "join"
    assert inner.fields == inner_fields
    assert inner.source == 42
    assert inner.size == wrapped.size


def test_doubly_nested_wrapped_message():
    """Two wrapping levels (wrapped inside wrapped inside a data message)
    round-trip at exactly the outer model size."""
    stack, codec = _stack_and_codec("splitstream")
    by_protocol = {cls.PROTOCOL: cls for cls in stack}
    scribe_types = {t.name: t for t in by_protocol["scribe"].MESSAGE_TYPES}
    inner_type = scribe_types["tdata"]
    inner_fields = {spec.name: 3 for spec in inner_type.fields
                    if not spec.is_list}
    inner_fields.update({spec.name: [1, 2] for spec in inner_type.fields
                         if spec.is_list})
    inner = WrappedMessage(protocol="scribe", name="tdata",
                           fields=inner_fields, payload=b"tail",
                           payload_size=64, source=5,
                           size=inner_type.size_of(inner_fields, 64))
    mid_type = scribe_types["mdata"]
    mid_fields = {spec.name: 8 for spec in mid_type.fields if not spec.is_list}
    mid_fields.update({spec.name: [9] for spec in mid_type.fields
                       if spec.is_list})
    middle = WrappedMessage(protocol="scribe", name="mdata", fields=mid_fields,
                            payload=inner, payload_size=inner.size, source=6,
                            size=mid_type.size_of(mid_fields, inner.size))
    pastry_types = {t.name: t for t in by_protocol["pastry"].MESSAGE_TYPES}
    outer = Message(type=pastry_types["pdata"], fields={}, payload=middle,
                    payload_size=middle.size, protocol="pastry")
    encoded = codec.encode_message(outer)
    assert len(encoded) == outer.size
    decoded, _ = codec.decode_message(encoded)
    assert decoded.payload.payload.fields == inner_fields
    assert decoded.payload.payload.payload == b"tail"


def test_payload_kinds_round_trip():
    stack, codec = _stack_and_codec("chord")
    data_type = {t.name: t for t in stack[0].MESSAGE_TYPES}["data"]
    app = AppPayload(seqno=12, sent_at=34.5, source=6, size=1000, stream_id=9)
    for payload, payload_size in [
        (None, 0), (None, 500), (b"\x00\xffbytes", 100), ("text", 64),
        (12345, 64), (2.5, 64), (True, 64), (app, 1000),
    ]:
        message = Message(type=data_type, fields={"target": 1, "hops": 2},
                          payload=payload, payload_size=payload_size,
                          protocol="chord")
        encoded = codec.encode_message(message)
        assert len(encoded) == message.size, (payload, payload_size)
        decoded, _ = codec.decode_message(encoded)
        assert decoded.payload == payload
        assert decoded.payload_size == payload_size


def test_heartbeat_payload_round_trips():
    from repro.runtime.node import _Heartbeat
    _, codec = _stack_and_codec("chord")
    for kind in ("ping", "pong"):
        block = codec.encode_payload(_Heartbeat(kind=kind))
        decoded, end = codec.decode_payload(block)
        assert end == len(block)
        assert isinstance(decoded, _Heartbeat) and decoded.kind == kind


def test_string_fields_are_length_prefixed_and_round_trip():
    note = MessageType("note", (FieldSpec("text", "string"),
                                FieldSpec("tags", "string", is_list=True),
                                FieldSpec("count", "int")))
    codec = WireCodec({"notes": MessageCatalog([note])})
    rng = random.Random(7)
    for _ in range(16):
        fields = {"text": _random_value("string", rng),
                  "tags": [_random_value("string", rng)
                           for _ in range(rng.randrange(4))],
                  "count": 3}
        message = Message(type=note, fields=fields, protocol="notes")
        encoded = codec.encode_message(message)
        assert len(encoded) == message.size
        decoded, _ = codec.decode_message(encoded)
        assert decoded.fields == fields
    # The model itself: 4-byte length prefix plus UTF-8 bytes.
    assert Message(type=note, fields={"text": "abc", "tags": [],
                                      "count": 0}).size == \
        MESSAGE_HEADER_BYTES + (4 + 3) + 4 + 4
    assert FIELD_TYPE_SIZES["string"] == 4


def test_unset_fields_encode_as_zero_defaults():
    """Scalars left unset travel as zero/False/empty — the live-mode analogue
    of the simulator's None reads (documented in docs/LIVE.md)."""
    stack, codec = _stack_and_codec("chord")
    lookup = {t.name: t for t in stack[0].MESSAGE_TYPES}["lookup"]
    message = Message(type=lookup, fields={}, protocol="chord")
    decoded, _ = codec.decode_message(codec.encode_message(message))
    assert decoded.fields["target"] == 0
    assert decoded.fields["hops"] == 0


def test_codec_errors_are_loud_and_typed():
    stack, codec = _stack_and_codec("chord")
    chord_types = {t.name: t for t in stack[0].MESSAGE_TYPES}
    message = Message(type=chord_types["data"], fields={"target": 1},
                      protocol="chord")
    encoded = codec.encode_message(message)

    # Unknown protocol for this codec.
    with pytest.raises(WireError, match="not built for"):
        codec.encode_message(Message(type=chord_types["data"], fields={},
                                     protocol="pastry"))
    # Truncated buffer.
    with pytest.raises(WireError, match="truncated"):
        codec.decode_message(encoded[:10])
    # Unknown message id (flip the type-id bytes).
    corrupted = bytearray(encoded)
    corrupted[8:12] = b"\xde\xad\xbe\xef"
    with pytest.raises(WireError, match="unknown message id"):
        codec.decode_message(bytes(corrupted))
    # Unsupported payload object.
    with pytest.raises(WireError, match="cannot encode payload"):
        codec.encode_message(Message(type=chord_types["data"], fields={},
                                     payload=object(), protocol="chord"))
    # Messages over the old 60 kB single-datagram cap now encode (the live
    # socket layer fragments them); only a runaway payload past the codec
    # ceiling still raises.
    big = codec.encode_message(Message(type=chord_types["data"], fields={},
                                       payload=None, payload_size=200_000,
                                       protocol="chord"))
    assert len(big) > 60_000
    with pytest.raises(WireError, match="ceiling"):
        codec.encode_message(Message(type=chord_types["data"], fields={},
                                     payload=None, payload_size=20_000_000,
                                     protocol="chord"))
    # A payload of a supported class whose *value* does not fit its struct
    # (these used to escape as a bare struct.error).
    for payload, named in [
            (2**70, "int"),
            (AppPayload(seqno=2**70, sent_at=0.0, source=1), "AppPayload"),
            (AppPayload(seqno=None, sent_at=0.0, source=1), "AppPayload")]:
        with pytest.raises(WireError, match=f"cannot encode payload {named}"):
            codec.encode_payload(payload)
    # A transport name that does not fit a frame's u8-length ASCII slot is
    # refused when the socket builds the frame prefix (it used to surface
    # as ValueError / UnicodeEncodeError from inside send).
    network = SocketUdpNetwork(1, {1: ("127.0.0.1", 1), 2: ("127.0.0.1", 2)},
                               codec)
    network.connection_made(object())   # never reached: the prefix fails first
    for name in ("N" * 256, "CTRLé"):
        with pytest.raises(WireError, match="transport name"):
            network.send(Packet(src=1, dst=2, payload=Datagram(name, None, 0),
                                size=0))


def test_corrupt_length_prefixes_raise_instead_of_truncating():
    """A length prefix pointing past the buffer is line noise, not a short
    value silently handed to the protocol stack."""
    stack, codec = _stack_and_codec("chord")
    chord_types = {t.name: t for t in stack[0].MESSAGE_TYPES}
    message = Message(type=chord_types["data"], fields={"target": 1, "hops": 2},
                      payload=b"abcdef", payload_size=64, protocol="chord")
    encoded = bytearray(codec.encode_message(message))
    # The bytes-payload length prefix sits right after header + fields;
    # inflate it far past the end of the datagram.
    fields_width = chord_types["data"].fixed_size - MESSAGE_HEADER_BYTES
    prefix_at = MESSAGE_HEADER_BYTES + fields_width
    encoded[prefix_at:prefix_at + 4] = (10_000).to_bytes(4, "big")
    with pytest.raises(WireError, match="truncated"):
        codec.decode_message(bytes(encoded))
    # Zero padding is part of the message: a datagram cut inside it is as
    # truncated as one cut inside a field (it used to decode, reporting an
    # end offset past the buffer).  Bytes *behind* a whole message are the
    # socket's to refuse — the codec cannot know where a datagram ends.
    padded = codec.encode_message(Message(
        type=chord_types["data"], fields={"target": 1, "hops": 2},
        payload=None, payload_size=1000, protocol="chord"))
    assert codec.decode_message(padded)[1] == len(padded)
    with pytest.raises(WireError, match="truncated"):
        codec.decode_message(padded[:len(padded) - 500])

    note = MessageType("note", (FieldSpec("text", "string"),))
    note_codec = WireCodec({"notes": MessageCatalog([note])})
    good = bytearray(note_codec.encode_message(
        Message(type=note, fields={"text": "hello"}, protocol="notes")))
    good[MESSAGE_HEADER_BYTES:MESSAGE_HEADER_BYTES + 4] = \
        (9_999).to_bytes(4, "big")
    with pytest.raises(WireError, match="truncated"):
        note_codec.decode_message(bytes(good))


def test_corrupt_text_is_a_wire_error_wherever_it_sits():
    """A string field, a string-list item and a ``str`` payload all decode
    through one length-prefixed-block helper: a prefix pointing past the
    buffer and bytes that are not UTF-8 both surface as the documented
    :class:`WireError` (the latter used to escape as UnicodeDecodeError)."""
    note = MessageType("note", (FieldSpec("text", "string"),
                                FieldSpec("tags", "string", is_list=True)))
    codec = WireCodec({"notes": MessageCatalog([note])})
    encoded = codec.encode_message(Message(
        type=note, fields={"text": "hello", "tags": ["ab", "cd"]},
        payload="tail", payload_size=8, protocol="notes"))
    # text: prefix at 16, bytes at 20; tags: count at 25, then two items
    # (prefix at 29, bytes at 33; prefix at 35, bytes at 39); payload: prefix
    # at 41, bytes at 45.
    assert encoded[20:25] == b"hello" and encoded[39:41] == b"cd"
    assert encoded[45:49] == b"tail"
    for prefix_at in (16, 35, 41):
        short = bytearray(encoded)
        short[prefix_at:prefix_at + 4] = (9_999).to_bytes(4, "big")
        with pytest.raises(WireError, match="truncated"):
            codec.decode_message(bytes(short))
        mangled = bytearray(encoded)
        mangled[prefix_at + 4] = 0xFF   # never valid in UTF-8
        with pytest.raises(WireError, match="not UTF-8"):
            codec.decode_message(bytes(mangled))
    block = bytearray(codec.encode_payload("tail"))
    block[-1] = 0xFF
    with pytest.raises(WireError, match="not UTF-8"):
        codec.decode_payload(bytes(block))
    with pytest.raises(WireError, match="truncated"):
        codec.decode_payload(bytes(block[:-1]))


def test_wire_ids_are_stable_and_distinct_across_bundle():
    """Protocol/message ids are pure functions of the name and collide for
    no bundled specification (both endpoints derive them independently)."""
    assert wire_id("chord") == wire_id("chord")
    seen = {}
    for protocol in BUNDLED_PROTOCOLS:
        stack = get_registry().load_stack(protocol)
        for agent_class in stack:
            proto_id = wire_id(agent_class.PROTOCOL)
            assert seen.setdefault(proto_id, agent_class.PROTOCOL) == \
                agent_class.PROTOCOL
            message_ids = {}
            for message_type in agent_class.MESSAGE_TYPES:
                type_id = wire_id(message_type.name)
                assert message_ids.setdefault(type_id, message_type.name) == \
                    message_type.name


def test_kv_and_topic_payloads_round_trip_at_model_size():
    """The application-layer payloads (replicated KV, topic pub/sub) encode
    to exactly the size model and round-trip field-for-field — including
    negative versions (-1 = "no value") and max-width keys/seqnos."""
    from repro.apps.payload import KV_GET_REPLY, KvPayload, TopicPayload

    stack, codec = _stack_and_codec("chord")
    data_type = {t.name: t for t in stack[0].MESSAGE_TYPES}["data"]
    payloads = [
        KvPayload(op=KV_GET_REPLY, key=2**32 - 1, version=-1, seqno=2**60,
                  sent_at=12.25, source=3, replier=9, size=100,
                  stream_id=7001),
        KvPayload(op=0, key=0, version=2**62, seqno=-5, sent_at=0.0,
                  source=1, size=4096, stream_id=0),
        TopicPayload(topic=2**31, seqno=-1, sent_at=3.5, source=4,
                     size=500, stream_id=7001),
        TopicPayload(topic=0, seqno=2**62, sent_at=-1.0, source=2**60),
    ]
    for payload in payloads:
        message = Message(type=data_type, fields={"target": 1, "hops": 2},
                          payload=payload, payload_size=payload.size,
                          protocol="chord")
        encoded = codec.encode_message(message)
        assert len(encoded) == message.size, payload
        decoded, end = codec.decode_message(encoded)
        assert end == len(encoded)
        assert decoded.payload == payload
        assert decoded.payload_size == payload.size


def test_kv_and_topic_payload_blob_sizes_pinned():
    """The packed struct widths are wire format: changing them breaks mixed
    sim/live fleets, so the exact byte counts are pinned here."""
    from repro.apps.payload import KvPayload, TopicPayload

    _, codec = _stack_and_codec("chord")
    for payload, width in [
        (KvPayload(op=0, key=0, version=0, seqno=0, sent_at=0.0, source=0), 61),
        (TopicPayload(topic=0, seqno=0, sent_at=0.0, source=0), 44),
        (AppPayload(seqno=0, sent_at=0.0, source=0), 40),
    ]:
        assert len(codec.encode_payload(payload)) - 1 == width   # minus tag


def test_ring_ipdata_round_trips_with_kv_payload():
    """Chord's routeIP message (``ipdata``) carries KV replies between
    live processes; it must encode at model size too."""
    from repro.apps.payload import KV_PUT_ACK, KvPayload
    from repro.protocols import chord_agent

    agent_class = chord_agent()
    codec = WireCodec.for_agents([agent_class])
    ipdata = {t.name: t for t in agent_class.MESSAGE_TYPES}["ipdata"]
    payload = KvPayload(op=KV_PUT_ACK, key=77, version=12, seqno=34,
                        sent_at=5.5, source=2, replier=6, size=100,
                        stream_id=7001)
    message = Message(type=ipdata, fields={}, payload=payload,
                      payload_size=payload.size,
                      protocol=agent_class.PROTOCOL)
    encoded = codec.encode_message(message)
    assert len(encoded) == message.size
    decoded, _ = codec.decode_message(encoded)
    assert decoded.type.name == "ipdata"
    assert decoded.payload == payload


# ------------------------------------------------ what compilation could break
def _reference_encode(protocol: str, message: Message) -> bytes:
    """The wire format field by field, straight from FIELD_FORMATS: no plan,
    no run, no fused struct.  Scalars: unset is zero, unsigned masks to its
    width; list items: unset is zero; strings: ``str()`` of anything."""
    def one(fmt, value, mask):
        if fmt is None:
            data = str(value).encode("utf-8")
            return struct.pack("!I", len(data)) + data
        if value is None:
            value = 0
        elif mask and fmt.isupper():
            value = int(value) & ((1 << 8 * struct.calcsize("!" + fmt)) - 1)
        return struct.pack("!" + fmt, value)

    out = struct.pack("!BBhIII", 1, 0, message.priority, wire_id(protocol),
                      wire_id(message.type.name), 0)
    for spec in message.type.fields:
        fmt, value = FIELD_FORMATS[spec.type_name], message.fields.get(spec.name)
        if spec.is_list:
            out += struct.pack("!I", len(value or ()))
            out += b"".join(one(fmt, item, False) for item in value or ())
        else:
            out += one(fmt, (value or "") if fmt is None else value, True)
    return out


_INTS = {"int": st.integers(-(2**31), 2**31 - 1),
         "long": st.integers(-(2**63), 2**63 - 1),
         "key": st.integers(0, 2**32 - 1), "ipaddr": st.integers(0, 2**32 - 1),
         "neighbor": st.integers(0, 2**64 - 1)}


def _values(type_name: str, scalar: bool):
    """Values of one field type; a scalar may also be unset, and an unsigned
    scalar out of its width (it masks)."""
    if type_name in _INTS:
        values = _INTS[type_name]
        if scalar and FIELD_FORMATS[type_name].isupper():
            values |= st.integers(-(2**70), 2**70)
    elif type_name == "string":
        values = st.text(max_size=12) | st.integers(0, 99)   # str() of anything
    else:
        values = {"bool": st.booleans(),
                  "float": st.floats(width=32, allow_nan=False),
                  "double": st.floats(allow_nan=False)}[type_name]
    return values | st.none() if scalar or type_name != "string" else values


@st.composite
def _typed_messages(draw):
    """A message type over a random field list — every field type, scalar and
    list, in any order, so runs split, lead and trail — and values for it."""
    declared = draw(st.lists(st.tuples(st.sampled_from(sorted(FIELD_FORMATS)),
                                       st.booleans()), max_size=9))
    message_type = MessageType("fuzzed", tuple(
        FieldSpec(f"f{i}", type_name, is_list)
        for i, (type_name, is_list) in enumerate(declared)))
    fields = {}
    for spec in message_type.fields:
        if draw(st.booleans()) or draw(st.booleans()):   # 1 in 4 left out
            fields[spec.name] = draw(
                st.lists(_values(spec.type_name, False), max_size=4)
                | st.none() if spec.is_list else _values(spec.type_name, True))
    return Message(type=message_type, fields=fields, protocol="fuzz",
                   priority=draw(st.integers(-1, 3)))


def _as_decoded(spec: FieldSpec, value):
    """What the far side reads for *value* (the coercions of docs/LIVE.md)."""
    fmt = FIELD_FORMATS[spec.type_name]
    if spec.is_list:
        return [str(item) if fmt is None else 0 if item is None else item
                for item in value or ()]
    if fmt is None:
        return str(value or "")
    if value is None:
        return 0
    return value & ((1 << 8 * FIELD_TYPE_SIZES[spec.type_name]) - 1) \
        if fmt.isupper() else value


@settings(max_examples=200, deadline=None)
@given(_typed_messages())
def test_compiled_codec_matches_a_field_by_field_reference(message):
    """Whatever the plan fused or looped, the compiled encoder's bytes are the
    format applied one field at a time, as long as the size model says, and
    the compiled decoder reads every field back."""
    codec = WireCodec({"fuzz": MessageCatalog([message.type])})
    encoded = codec.encode_message(message)
    assert encoded == _reference_encode("fuzz", message)
    assert len(encoded) == message.size
    decoded, end = codec.decode_message(encoded)
    assert end == len(encoded) and decoded.type is message.type
    assert decoded.fields == {
        spec.name: _as_decoded(spec, message.fields.get(spec.name))
        for spec in message.type.fields}


def test_a_fixed_size_type_compiles_to_one_pack_per_header_and_no_loop():
    """What "compiled" means, structurally: all of a fixed-size type's fields
    ride the header's struct — the encoder packs once (behind a message
    header, or behind a wrapped one) and neither function loops."""
    stack, _ = _stack_and_codec("chord")
    lookup = {t.name: t for t in stack[0].MESSAGE_TYPES}["lookup"]
    assert lookup.is_fixed_size
    source = emit_codec("chord", lookup)
    encoder = source.split("def encode(")[1].split("def decode(")[0]
    branches = encoder.split("    else:\n")
    assert [branch.count("pack(") for branch in branches] == [1, 1]
    assert "head.pack(" in branches[0] and "wrapped_head.pack(" in branches[1]
    assert "for " not in source and "while " not in source
    assert "Struct('!BBhIII" in source and "Struct('!BIIHI" in source


def test_live_md_shows_the_generated_codec_verbatim():
    """docs/LIVE.md "What the codec compiles" is a view of the emitter: its
    code block is the text the codec compiles for ``chord.lookup``."""
    stack, _ = _stack_and_codec("chord")
    lookup = {t.name: t for t in stack[0].MESSAGE_TYPES}["lookup"]
    text = (Path(__file__).parents[2] / "docs" / "LIVE.md").read_text("utf-8")
    section = text.split("\n### What the codec compiles\n", 1)[1]
    shown = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert shown == emit_codec("chord", lookup)


def test_message_in_wrapped_in_message_round_trips():
    """Depth 3 through all three nesting arms: a message whose payload is a
    wrapped message whose payload is a message (the compiled encoders call
    back into the codec for their payload, never into ``encode_payload``)."""
    stack, codec = _stack_and_codec("scribe")
    pastry, scribe = stack
    pdata = {t.name: t for t in pastry.MESSAGE_TYPES}["pdata"]
    join = {t.name: t for t in scribe.MESSAGE_TYPES}["join"]
    core = Message(type=pdata, fields={}, payload=b"core", payload_size=32,
                   priority=2, protocol="pastry")
    middle = WrappedMessage(protocol="scribe", name="join",
                            fields={"gid": 7, "member": 3}, payload=core,
                            payload_size=core.size, source=9,
                            size=join.size_of({"gid": 7, "member": 3},
                                              core.size))
    outer = Message(type=pdata, fields={}, payload=middle,
                    payload_size=middle.size, protocol="pastry")
    encoded = codec.encode_message(outer)
    assert len(encoded) == outer.size
    decoded, end = codec.decode_message(encoded)
    assert end == len(encoded)
    inner = decoded.payload.payload
    assert decoded.payload.fields == {"gid": 7, "member": 3}
    assert decoded.payload.source == 9
    assert inner.type is pdata and inner.priority == 2
    assert inner.payload == b"core" and inner.payload_size == 32
