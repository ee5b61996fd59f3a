"""Tests for typed protocol messages."""

from __future__ import annotations

import pytest

from repro.runtime.messages import (
    FieldSpec,
    Message,
    MessageCatalog,
    MessageError,
    MessageType,
    MESSAGE_HEADER_BYTES,
)


@pytest.fixture
def join_reply() -> MessageType:
    return MessageType("join_reply", (FieldSpec("response", "int"),
                                      FieldSpec("siblings", "ipaddr", is_list=True)),
                       "HIGHEST")


def test_message_field_access(join_reply):
    message = Message(type=join_reply, fields={"response": 1, "siblings": [2, 3]})
    assert message.name == "join_reply"
    assert message.field("response") == 1
    assert message.response == 1
    assert message.siblings == [2, 3]


def test_unknown_field_rejected_on_construction(join_reply):
    with pytest.raises(MessageError):
        Message(type=join_reply, fields={"nonsense": 1})


def test_field_access_unknown_name(join_reply):
    message = Message(type=join_reply, fields={"response": 1})
    with pytest.raises(MessageError):
        message.field("nonsense")
    # Declared but unset fields read as None via attribute access.
    assert message.siblings is None
    with pytest.raises(AttributeError):
        _ = message.totally_unknown


def test_size_model_accounts_for_fields_and_payload(join_reply):
    empty = Message(type=join_reply, fields={"response": 1, "siblings": []})
    loaded = Message(type=join_reply, fields={"response": 1, "siblings": [1, 2, 3]},
                     payload_size=500)
    assert empty.size >= MESSAGE_HEADER_BYTES + 4 + 4
    assert loaded.size == empty.size + 3 * 4 + 500


def test_string_field_size_varies():
    message_type = MessageType("note", (FieldSpec("text", "string"),))
    short = Message(type=message_type, fields={"text": "ab"})
    long = Message(type=message_type, fields={"text": "a" * 100})
    assert long.size > short.size


def test_catalog_lookup_and_duplicates(join_reply):
    catalog = MessageCatalog([join_reply])
    assert "join_reply" in catalog
    assert catalog.get("join_reply") is join_reply
    with pytest.raises(MessageError):
        catalog.add(join_reply)
    with pytest.raises(MessageError):
        catalog.get("missing")
    assert catalog.names() == ["join_reply"]


def test_routed_message_copies_slot_for_slot(join_reply):
    routed = Message(type=join_reply, fields={"response": 1}, payload="data",
                     payload_size=10, source=42, protocol="scribe",
                     routed=True)
    message = routed.copy()
    assert message is not routed and type(message) is type(routed)
    assert message.response == 1
    assert message.payload == "data"
    assert message.payload_size == 10
    assert message.source == 42
    assert message.protocol == "scribe" and message.routed
    assert message.fields == routed.fields == {"response": 1, "siblings": None}


def test_unknown_field_type_rejected_at_spec_compile_time():
    # A typo'd field type must fail when the MessageType is built (i.e. when
    # the generated module imports), not silently charge a default size on
    # the first send.
    with pytest.raises(MessageError, match="unknown type 'in_t'"):
        MessageType("join_reply", (FieldSpec("response", "in_t"),))
    with pytest.raises(MessageError, match="unknown type"):
        MessageType("probe", (FieldSpec("peers", "nieghbor", is_list=True),))


def test_field_named_like_a_message_attribute_is_rejected():
    for name in ("size", "payload", "source", "type", "fields", "cls"):
        with pytest.raises(MessageError, match="collides"):
            MessageType("probe", (FieldSpec(name, "int"),))


def test_fixed_size_precomputed_and_var_fields_counted_per_send(join_reply):
    # int (4) is folded into fixed_size with the 16-byte header; the ipaddr
    # list stays per-send.
    assert join_reply.fixed_size == MESSAGE_HEADER_BYTES + 4
    assert Message(join_reply, {"response": 1, "siblings": []}).size == \
        join_reply.fixed_size + 4
    assert Message(join_reply, {"response": 1, "siblings": [1, 2]}).size == \
        join_reply.fixed_size + 4 + 2 * 4


def test_string_fields_charge_their_length_prefix():
    # Strings are length-prefixed on the wire (4-byte count + UTF-8 bytes) so
    # the size model and the WireCodec encoding agree byte-for-byte; an empty
    # or unset string is just the prefix.
    note = MessageType("note", (FieldSpec("text", "string"),))
    assert Message(type=note, fields={"text": ""}).size == \
        MESSAGE_HEADER_BYTES + 4
    assert Message(type=note).size == MESSAGE_HEADER_BYTES + 4
    assert Message(type=note, fields={"text": "abcde"}).size == \
        MESSAGE_HEADER_BYTES + 4 + 5
