"""Typed protocol messages.

A ``mac`` specification declares its messages, each bound to a transport
instance (lowest layer) or service class (higher layers)::

    messages {
        BEST_EFFORT join { }
        HIGHEST join_reply { int response; }
    }

The runtime turns each declaration into a :class:`MessageType` with typed
fields.  Field types drive the on-the-wire size model so the emulator charges
realistic bytes for control traffic, and the generated code accesses fields
either as attributes (``msg.response``) or through the paper's ``field()``
primitive.

Message construction is protocol-plane hot-path work — one instance per send
on every node — so the classes here are compiled once per type and slotted:

* :class:`MessageType` resolves its size model at spec-compile time: the
  fixed wire size (header + every scalar field) is precomputed, and only
  list/string fields — the ones whose size depends on the value — are
  visited per send.  Unknown field types are rejected *here*, when the spec
  compiles, not silently defaulted at send time.
* :class:`Message` is a ``__slots__`` envelope with a lazy ``msg_id`` (the
  process-wide counter is only consumed if somebody reads it) and a size
  memoised on first read.

The size model is no longer only a model: :class:`WireCodec` (bottom of this
module) turns it into a real byte-level encoding — struct-packed scalars,
length-prefixed lists and strings, recursively encoded wrapped messages —
whose encoded length **equals** the precomputed wire size, so the bytes a
live datagram carries are exactly the bytes the emulator charges in
simulation.  The codec is compiled lazily per message type and is used only
by the live-execution runtime (:mod:`repro.live`); simulated sends never
serialize.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from typing import Any, Iterator, Mapping, Optional

#: Serialized size, in bytes, of each supported fixed-width field type.
#: Strings are variable-width (4-byte length prefix + UTF-8 bytes) and are
#: sized by the var-field path, never by this table.
FIELD_TYPE_SIZES: dict[str, int] = {
    "int": 4,
    "long": 8,
    "double": 8,
    "float": 4,
    "bool": 1,
    "key": 4,
    "ipaddr": 4,
    "string": 4,   # length prefix; the UTF-8 bytes are charged per value
    "neighbor": 8,
}

#: Fixed per-message envelope overhead (type tag, source, protocol id).
MESSAGE_HEADER_BYTES = 16


class MessageError(ValueError):
    """Raised for unknown message types, field types, or malformed access."""


class FieldSpec:
    """One declared field of a message type."""

    __slots__ = ("name", "type_name", "is_list")

    def __init__(self, name: str, type_name: str, is_list: bool = False) -> None:
        self.name = name
        self.type_name = type_name
        #: For list-typed fields ("neighbor list", "int list"), the element type.
        self.is_list = is_list

    def size_of(self, value: Any) -> int:
        try:
            base = FIELD_TYPE_SIZES[self.type_name]
        except KeyError:
            raise MessageError(
                f"field {self.name!r} has unknown type {self.type_name!r} "
                f"(known: {sorted(FIELD_TYPE_SIZES)})"
            ) from None
        if self.is_list:
            if self.type_name == "string":
                return 4 + sum(4 + len(str(item).encode("utf-8"))
                               for item in (value or ()))
            try:
                length = len(value)
            except TypeError:
                length = 0
            return 4 + base * length
        if self.type_name == "string":
            return 4 + len(str(value or "").encode("utf-8"))
        return base

    def __repr__(self) -> str:   # evaluable: the code generator emits it
        return f"FieldSpec({self.name!r}, {self.type_name!r}, is_list={self.is_list!r})"


class MessageType:
    """A declared message type: name, fields, and default transport binding.

    The wire-size model is compiled once, at construction: scalar fields sum
    into :attr:`fixed_size` and only value-dependent fields (lists, strings)
    remain in the per-send loop.  A field with a type the size model does not
    know is a specification bug and raises :class:`MessageError` here — at
    spec-compile time — rather than silently charging a default at send time.
    """

    __slots__ = ("name", "fields", "transport", "fixed_size", "is_fixed_size",
                 "_var_specs", "_names", "_wire")

    def __init__(self, name: str, fields: tuple = (),
                 transport: Optional[str] = None) -> None:
        self.name = name
        self.fields: tuple[FieldSpec, ...] = tuple(fields)
        self.transport = transport
        fixed = MESSAGE_HEADER_BYTES
        var_specs = []
        for spec in self.fields:
            base = FIELD_TYPE_SIZES.get(spec.type_name)
            if base is None:
                raise MessageError(
                    f"message {name!r} field {spec.name!r} has unknown type "
                    f"{spec.type_name!r} (known: {sorted(FIELD_TYPE_SIZES)})"
                )
            if spec.is_list or spec.type_name == "string":
                var_specs.append((spec.name, spec.is_list, base,
                                  spec.type_name == "string"))
            else:
                fixed += base
        #: Wire size shared by every instance: header plus all scalar fields.
        self.fixed_size = fixed
        #: Whether that is all of it: wire size == fixed_size + payload_size.
        self.is_fixed_size = not var_specs
        self._var_specs = tuple(var_specs)
        self._names = frozenset(spec.name for spec in self.fields)
        #: Lazily compiled field pack/unpack plan (see :class:`WireCodec`).
        self._wire: Optional[tuple] = None

    def field_names(self) -> list[str]:
        return [spec.name for spec in self.fields]

    def validate_fields(self, values: Mapping[str, Any]) -> None:
        names = self._names
        if not names.issuperset(values):   # one C-level pass: runs per send
            unknown = sorted(set(values) - names)
            raise MessageError(
                f"message {self.name!r} has no field(s) {unknown} "
                f"(declared: {sorted(names)})"
            )

    def size_of(self, values: Mapping[str, Any], payload_size: int = 0) -> int:
        total = self.fixed_size + payload_size
        for name, is_list, base, is_string in self._var_specs:
            value = values.get(name)
            if is_list:
                if is_string:
                    total += 4 + sum(4 + len(str(item).encode("utf-8"))
                                     for item in (value or ()))
                    continue
                try:
                    length = len(value)
                except TypeError:
                    length = 0
                total += 4 + base * length
            else:   # variable-width string scalar: length prefix + UTF-8
                total += 4 + len(str(value or "").encode("utf-8"))
        return total

    def __repr__(self) -> str:   # evaluable: the code generator emits it
        fields = "".join(f"{spec!r}, " for spec in self.fields).rstrip(" ")
        return f"MessageType({self.name!r}, ({fields}), {self.transport!r})"


_message_ids = itertools.count(1)


class Message:
    """An instance of a message type travelling between two overlay nodes.

    ``fields`` holds the declared field values; ``payload`` carries opaque
    application data (or a wrapped higher-layer message) of ``payload_size``
    bytes.  ``source`` is filled by the runtime on reception with the sender's
    host address, matching the paper's implicit ``from`` variable.

    A slotted envelope: the wire size is memoised on first read (the type's
    precomputed fixed size plus the value-dependent fields), and ``msg_id``
    draws from the process-wide counter lazily, only if somebody asks.
    """

    __slots__ = ("type", "fields", "payload", "payload_size", "priority",
                 "source", "dest", "dest_key", "protocol", "_msg_id", "_size")

    def __init__(self, type: MessageType, fields: Optional[dict[str, Any]] = None,
                 payload: Any = None, payload_size: int = 0, priority: int = -1,
                 source: Optional[int] = None, dest: Optional[int] = None,
                 dest_key: Optional[int] = None, protocol: str = "",
                 msg_id: Optional[int] = None) -> None:
        if fields is None:
            fields = {}
        else:
            type.validate_fields(fields)
        self.type = type
        self.fields = fields
        self.payload = payload
        self.payload_size = payload_size
        self.priority = priority
        self.source = source
        self.dest = dest
        self.dest_key = dest_key
        self.protocol = protocol
        self._msg_id = msg_id
        self._size: Optional[int] = None

    @property
    def name(self) -> str:
        return self.type.name

    @property
    def msg_id(self) -> int:
        msg_id = self._msg_id
        if msg_id is None:
            msg_id = self._msg_id = next(_message_ids)
        return msg_id

    @property
    def size(self) -> int:
        size = self._size
        if size is None:
            size = self._size = self.type.size_of(self.fields, self.payload_size)
        return size

    def field(self, name: str) -> Any:
        """The paper's ``field()`` accessor."""
        if name not in self.type._names:
            raise MessageError(f"message {self.name!r} has no field {name!r}")
        return self.fields.get(name)

    def __getattr__(self, name: str) -> Any:
        # Only called when normal attribute lookup fails: treat it as a field
        # access so generated code can write ``msg.response``.
        fields = object.__getattribute__(self, "fields")
        if name in fields:
            return fields[name]
        msg_type = object.__getattribute__(self, "type")
        if name in msg_type._names:
            return None
        raise AttributeError(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message({self.name!r}, fields={self.fields!r}, "
                f"source={self.source}, dest={self.dest})")


class WrappedMessage:
    """A higher-layer message carried as the payload of a lower-layer message.

    This is how protocol layering crosses the wire: Scribe's ``join`` control
    message, for example, travels as the payload of a Pastry route message and
    is unwrapped by the Scribe agent on the receiving stack.
    """

    __slots__ = ("protocol", "name", "fields", "payload", "payload_size",
                 "source", "source_key", "size")

    def __init__(self, protocol: str, name: str, fields: dict[str, Any],
                 payload: Any = None, payload_size: int = 0,
                 source: Optional[int] = None, source_key: Optional[int] = None,
                 size: int = 0) -> None:
        self.protocol = protocol
        self.name = name
        self.fields = fields
        self.payload = payload
        self.payload_size = payload_size
        self.source = source
        self.source_key = source_key
        self.size = size

    def as_message(self, message_type: MessageType) -> Message:
        # Copy the field dict: a fanned-out wrapped message (multicast) is
        # shared across deliveries, and each receiving agent gets its own
        # mutable view, exactly as if it had come off its own wire.
        return Message(
            type=message_type,
            fields=dict(self.fields),
            payload=self.payload,
            payload_size=self.payload_size,
            source=self.source,
            protocol=self.protocol,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WrappedMessage({self.protocol!r}, {self.name!r}, "
                f"fields={self.fields!r})")


class MessageCatalog:
    """The set of message types declared by one protocol."""

    def __init__(self, types: Optional[list[MessageType]] = None) -> None:
        self._types: dict[str, MessageType] = {}
        for message_type in types or []:
            self.add(message_type)

    def add(self, message_type: MessageType) -> None:
        if message_type.name in self._types:
            raise MessageError(f"message {message_type.name!r} declared twice")
        self._types[message_type.name] = message_type

    def get(self, name: str) -> MessageType:
        try:
            return self._types[name]
        except KeyError as exc:
            raise MessageError(
                f"unknown message type {name!r} (declared: {sorted(self._types)})"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[MessageType]:
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)

    def names(self) -> list[str]:
        return sorted(self._types)


# ======================================================================== wire
class WireError(MessageError):
    """Raised when a value cannot be encoded to (or decoded from) the wire."""


#: struct format character per fixed-width field type.  The packed widths are
#: exactly :data:`FIELD_TYPE_SIZES`, which is what makes encoded length equal
#: the precomputed size model (asserted at import below).
_SCALAR_FORMATS: dict[str, str] = {
    "int": "i",
    "long": "q",
    "double": "d",
    "float": "f",
    "bool": "?",
    "key": "I",
    "ipaddr": "I",
    "neighbor": "Q",
}

for _type_name, _fmt in _SCALAR_FORMATS.items():
    assert struct.calcsize("!" + _fmt) == FIELD_TYPE_SIZES[_type_name], _type_name

#: 32-bit unsigned types are masked (ring keys are already in range; masking
#: makes encode total); signed types raise WireError on overflow instead.
_MASKS = {"I": 0xFFFFFFFF, "Q": 0xFFFFFFFFFFFFFFFF}

_SCALAR_DEFAULTS_BY_FMT = {"i": 0, "q": 0, "d": 0.0, "f": 0.0, "?": False,
                           "I": 0, "Q": 0}

#: Message envelope: version, payload type tag, priority, protocol id,
#: message-type id, payload size.  Its packed width IS the size model's
#: MESSAGE_HEADER_BYTES (the "type tag, source, protocol id" overhead).
_MESSAGE_HEADER = struct.Struct("!BBhIII")
assert _MESSAGE_HEADER.size == MESSAGE_HEADER_BYTES

#: Wrapped-message envelope: payload type tag, protocol id, message-type id,
#: payload size (u16 — bounded by the live datagram cap), original source.
#: 15 bytes <= MESSAGE_HEADER_BYTES, so a wrapped message encodes within the
#: header budget its size model charges.
_WRAPPED_HEADER = struct.Struct("!BIIHI")
assert _WRAPPED_HEADER.size <= MESSAGE_HEADER_BYTES

_U32 = struct.Struct("!I")
_APP_PAYLOAD = struct.Struct("!qdQqq")   # seqno, sent_at, source, size, stream_id
# op, key, version, seqno, sent_at, source, replier, size, stream_id
_KV_PAYLOAD = struct.Struct("!BIqqdQQqq")
# topic, seqno, sent_at, source, size, stream_id
_TOPIC_PAYLOAD = struct.Struct("!IqdQqq")

WIRE_VERSION = 1

#: Largest encodable message.  This used to be the single-UDP-datagram
#: ceiling of live mode (60 000 bytes); the live socket layer now fragments
#: and reassembles oversized frames (:data:`repro.transport.udp.
#: FRAGMENT_THRESHOLD`), so the cap is only a runaway-allocation guard —
#: large payloads degrade to multiple datagrams instead of raising.
MAX_WIRE_SIZE = 16_000_000

# Payload type tags (the codec's closed set of payload classes).
_P_NONE = 0
_P_MESSAGE = 1
_P_WRAPPED = 2
_P_APP = 3
_P_BYTES = 4
_P_STR = 5
_P_INT = 6
_P_FLOAT = 7
_P_BOOL = 8
_P_HEARTBEAT = 9
_P_KV = 10
_P_TOPIC = 11


def wire_id(name: str) -> int:
    """Stable 32-bit identifier of a protocol or message-type name."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


def _checked_slice(data: bytes, offset: int, length: int) -> bytes:
    """``data[offset:offset+length]``, loud when the buffer is short.

    A corrupt or truncated datagram whose length prefix points past the end
    must raise (and be counted as line noise by the socket layer), never
    silently yield a short value into the protocol stack.
    """
    end = offset + length
    if end > len(data):
        raise WireError(
            f"truncated wire data: need {length} bytes at offset {offset}, "
            f"buffer has {len(data)}")
    return data[offset:end]


def _compile_wire_plan(message_type: MessageType) -> tuple:
    """Compile a message type's fields into a pack/unpack plan.

    Consecutive fixed-width fields collapse into one :class:`struct.Struct`;
    lists and strings stay as per-value ops.  Ops are ``("scalars", Struct,
    names, formats)``, ``("list", name, Struct, default)``, ``("slist",
    name)``, or ``("string", name)``.
    """
    ops: list[tuple] = []
    run_names: list[str] = []
    run_fmt: list[str] = []

    def flush() -> None:
        if run_names:
            ops.append(("scalars", struct.Struct("!" + "".join(run_fmt)),
                        tuple(run_names), tuple(run_fmt)))
            run_names.clear()
            run_fmt.clear()

    for spec in message_type.fields:
        if spec.is_list:
            flush()
            if spec.type_name == "string":
                ops.append(("slist", spec.name))
            else:
                fmt = _SCALAR_FORMATS[spec.type_name]
                ops.append(("list", spec.name, struct.Struct("!" + fmt),
                            _SCALAR_DEFAULTS_BY_FMT[fmt]))
        elif spec.type_name == "string":
            flush()
            ops.append(("string", spec.name))
        else:
            run_names.append(spec.name)
            run_fmt.append(_SCALAR_FORMATS[spec.type_name])
    flush()
    return tuple(ops)


class WireCodec:
    """Byte-level codec for the message types of one protocol stack.

    Shared verbatim between the two execution modes: in simulation the size
    model (``MessageType.size_of``) *prices* each message, and in live mode
    this codec *materialises* it — for every supported payload shape the
    encoded length equals the priced length, so a live datagram occupies
    exactly the bytes the emulator would have charged.  Synthetic payload
    bytes (an ``AppPayload`` declared larger than its struct, or a ``None``
    payload with a declared size) are zero-padded onto the wire, exactly like
    the paper's generated traffic.

    The codec is constructed from the agent classes of one stack (every
    protocol whose messages may appear on the wire, including wrapped inner
    messages) and is symmetric: both ends of a connection must be built from
    the same specifications, which the live cluster guarantees by compiling
    the same registry stack in every process.
    """

    def __init__(self, catalogs: Mapping[str, MessageCatalog]) -> None:
        self._protocols: dict[int, tuple[str, dict[int, MessageType]]] = {}
        self._names: dict[str, int] = {}
        for protocol, catalog in catalogs.items():
            proto_id = wire_id(protocol)
            if proto_id in self._protocols:
                other = self._protocols[proto_id][0]
                raise WireError(
                    f"protocol id collision between {protocol!r} and {other!r}")
            types: dict[int, MessageType] = {}
            for message_type in catalog:
                type_id = wire_id(message_type.name)
                if type_id in types:
                    raise WireError(
                        f"message id collision in protocol {protocol!r}: "
                        f"{message_type.name!r} vs {types[type_id].name!r}")
                types[type_id] = message_type
            self._protocols[proto_id] = (protocol, types)
            self._names[protocol] = proto_id
        # Lazily imported payload classes (imports would cycle at module
        # scope: node/apps import this module).
        self._app_payload: Optional[type] = None
        self._heartbeat: Optional[type] = None
        self._kv_payload: Optional[type] = None
        self._topic_payload: Optional[type] = None

    @classmethod
    def for_agents(cls, agent_classes) -> "WireCodec":
        """Build a codec covering every protocol of a stack (lowest first)."""
        catalogs: dict[str, MessageCatalog] = {}
        for agent_class in agent_classes:
            catalogs[agent_class.PROTOCOL] = MessageCatalog(
                list(agent_class.MESSAGE_TYPES))
        return cls(catalogs)

    def protocols(self) -> list[str]:
        return sorted(self._names)

    # ---------------------------------------------------------------- lookup
    def _message_type(self, proto_id: int, type_id: int) -> tuple[str, MessageType]:
        entry = self._protocols.get(proto_id)
        if entry is None:
            raise WireError(
                f"unknown protocol id {proto_id:#x} on the wire "
                f"(codec knows: {self.protocols()}); both endpoints must be "
                f"built from the same specifications")
        protocol, types = entry
        message_type = types.get(type_id)
        if message_type is None:
            raise WireError(
                f"unknown message id {type_id:#x} for protocol {protocol!r} "
                f"(codec knows: {sorted(t.name for t in types.values())})")
        return protocol, message_type

    def _payload_classes(self) -> tuple[type, type]:
        if self._app_payload is None:
            from ..apps.payload import AppPayload, KvPayload, TopicPayload
            from .node import _Heartbeat
            self._app_payload = AppPayload
            self._heartbeat = _Heartbeat
            self._kv_payload = KvPayload
            self._topic_payload = TopicPayload
        return self._app_payload, self._heartbeat

    # ---------------------------------------------------------------- fields
    @staticmethod
    def _encode_fields(message_type: MessageType, values: Mapping[str, Any],
                       out: list) -> None:
        plan = message_type._wire
        if plan is None:
            plan = message_type._wire = _compile_wire_plan(message_type)
        try:
            for op in plan:
                kind = op[0]
                if kind == "scalars":
                    _, packer, names, formats = op
                    row = []
                    for name, fmt in zip(names, formats):
                        value = values.get(name)
                        if value is None:
                            value = _SCALAR_DEFAULTS_BY_FMT[fmt]
                        mask = _MASKS.get(fmt)
                        if mask is not None:
                            value = int(value) & mask
                        row.append(value)
                    out.append(packer.pack(*row))
                elif kind == "list":
                    _, name, packer, default = op
                    items = values.get(name) or ()
                    out.append(_U32.pack(len(items)))
                    pack = packer.pack
                    for item in items:
                        out.append(pack(default if item is None else item))
                elif kind == "string":
                    data = str(values.get(op[1]) or "").encode("utf-8")
                    out.append(_U32.pack(len(data)))
                    out.append(data)
                else:   # "slist"
                    items = values.get(op[1]) or ()
                    out.append(_U32.pack(len(items)))
                    for item in items:
                        data = str(item).encode("utf-8")
                        out.append(_U32.pack(len(data)))
                        out.append(data)
        except (struct.error, TypeError, ValueError) as exc:
            raise WireError(
                f"cannot encode message {message_type.name!r} fields "
                f"{dict(values)!r}: {exc}") from exc

    @staticmethod
    def _decode_fields(message_type: MessageType, data: bytes,
                       offset: int) -> tuple[dict[str, Any], int]:
        plan = message_type._wire
        if plan is None:
            plan = message_type._wire = _compile_wire_plan(message_type)
        fields: dict[str, Any] = {}
        try:
            for op in plan:
                kind = op[0]
                if kind == "scalars":
                    _, packer, names, _formats = op
                    row = packer.unpack_from(data, offset)
                    offset += packer.size
                    for name, value in zip(names, row):
                        fields[name] = value
                elif kind == "list":
                    _, name, packer, _default = op
                    (count,) = _U32.unpack_from(data, offset)
                    offset += 4
                    items = []
                    unpack = packer.unpack_from
                    width = packer.size
                    for _ in range(count):
                        items.append(unpack(data, offset)[0])
                        offset += width
                    fields[name] = items
                elif kind == "string":
                    (length,) = _U32.unpack_from(data, offset)
                    offset += 4
                    fields[op[1]] = _checked_slice(data, offset,
                                                   length).decode("utf-8")
                    offset += length
                else:   # "slist"
                    (count,) = _U32.unpack_from(data, offset)
                    offset += 4
                    items = []
                    for _ in range(count):
                        (length,) = _U32.unpack_from(data, offset)
                        offset += 4
                        items.append(_checked_slice(data, offset,
                                                    length).decode("utf-8"))
                        offset += length
                    fields[op[1]] = items
        except struct.error as exc:
            raise WireError(
                f"truncated wire data for message {message_type.name!r}: {exc}"
            ) from exc
        return fields, offset

    # -------------------------------------------------------------- messages
    def encode_message(self, message: Message) -> bytes:
        """Encode a protocol message; ``len(result) == message.size`` for
        every supported payload that fits its declared ``payload_size``."""
        proto_id = self._names.get(message.protocol)
        if proto_id is None:
            raise WireError(
                f"message {message.name!r} belongs to protocol "
                f"{message.protocol!r}, which this codec was not built for "
                f"(knows: {self.protocols()})")
        ptype, content = self._encode_payload_content(message.payload)
        payload_size = int(message.payload_size)
        out: list = [_MESSAGE_HEADER.pack(
            WIRE_VERSION, ptype, message.priority, proto_id,
            wire_id(message.type.name), payload_size)]
        self._encode_fields(message.type, message.fields, out)
        out.append(content)
        if len(content) < payload_size:
            out.append(b"\x00" * (payload_size - len(content)))
        encoded = b"".join(out)
        if len(encoded) > MAX_WIRE_SIZE:
            raise WireError(
                f"message {message.name!r} encodes to {len(encoded)} bytes, "
                f"over the {MAX_WIRE_SIZE}-byte codec ceiling (a runaway "
                f"payload? live mode fragments datagrams, but not this big)")
        return encoded

    def decode_message(self, data: bytes, offset: int = 0) -> tuple[Message, int]:
        """Decode one message; returns ``(message, end_offset)``."""
        try:
            version, ptype, priority, proto_id, type_id, payload_size = \
                _MESSAGE_HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise WireError(f"truncated message header: {exc}") from exc
        if version != WIRE_VERSION:
            raise WireError(f"wire version {version} != {WIRE_VERSION}")
        protocol, message_type = self._message_type(proto_id, type_id)
        fields, offset = self._decode_fields(message_type, data,
                                             offset + _MESSAGE_HEADER.size)
        payload, consumed = self._decode_payload_content(ptype, data, offset)
        offset += max(consumed, payload_size)   # skip synthetic padding
        message = Message(type=message_type, fields=fields, payload=payload,
                          payload_size=payload_size, priority=priority,
                          protocol=protocol)
        return message, offset

    def _encode_wrapped(self, wrapped: WrappedMessage) -> bytes:
        proto_id = self._names.get(wrapped.protocol)
        if proto_id is None:
            raise WireError(
                f"wrapped message {wrapped.name!r} belongs to protocol "
                f"{wrapped.protocol!r}, which this codec was not built for "
                f"(knows: {self.protocols()})")
        _, message_type = self._message_type(proto_id, wire_id(wrapped.name))
        payload_size = int(wrapped.payload_size)
        if payload_size > 0xFFFF:
            raise WireError(
                f"wrapped message {wrapped.name!r} declares a "
                f"{payload_size}-byte payload; live mode caps wrapped "
                f"payloads at 65535 bytes")
        ptype, content = self._encode_payload_content(wrapped.payload)
        out: list = [_WRAPPED_HEADER.pack(
            ptype, proto_id, wire_id(wrapped.name), payload_size,
            (wrapped.source or 0) & 0xFFFFFFFF)]
        self._encode_fields(message_type, wrapped.fields, out)
        out.append(content)
        if len(content) < payload_size:
            out.append(b"\x00" * (payload_size - len(content)))
        return b"".join(out)

    def _decode_wrapped(self, data: bytes,
                        offset: int) -> tuple[WrappedMessage, int]:
        try:
            ptype, proto_id, type_id, payload_size, source = \
                _WRAPPED_HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise WireError(f"truncated wrapped-message header: {exc}") from exc
        protocol, message_type = self._message_type(proto_id, type_id)
        fields, offset = self._decode_fields(message_type, data,
                                             offset + _WRAPPED_HEADER.size)
        payload, consumed = self._decode_payload_content(ptype, data, offset)
        offset += max(consumed, payload_size)
        source = source or None
        from .keys import hash_key
        wrapped = WrappedMessage(
            protocol=protocol, name=message_type.name, fields=fields,
            payload=payload, payload_size=payload_size, source=source,
            source_key=hash_key(source) if source is not None else None,
            size=message_type.size_of(fields, payload_size))
        return wrapped, offset

    # -------------------------------------------------------------- payloads
    def _encode_payload_content(self, payload: Any) -> tuple[int, bytes]:
        if payload is None:
            return _P_NONE, b""
        if isinstance(payload, Message):
            return _P_MESSAGE, self.encode_message(payload)
        if isinstance(payload, WrappedMessage):
            return _P_WRAPPED, self._encode_wrapped(payload)
        if isinstance(payload, (bytes, bytearray, memoryview)):
            data = bytes(payload)
            return _P_BYTES, _U32.pack(len(data)) + data
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            return _P_STR, _U32.pack(len(data)) + data
        if isinstance(payload, bool):
            return _P_BOOL, struct.pack("!?", payload)
        if isinstance(payload, int):
            return _P_INT, struct.pack("!q", payload)
        if isinstance(payload, float):
            return _P_FLOAT, struct.pack("!d", payload)
        app_payload, heartbeat = self._payload_classes()
        if isinstance(payload, app_payload):
            return _P_APP, _APP_PAYLOAD.pack(
                payload.seqno, payload.sent_at, payload.source & 0xFFFFFFFFFFFFFFFF,
                payload.size, payload.stream_id)
        if isinstance(payload, heartbeat):
            return _P_HEARTBEAT, struct.pack(
                "!?", payload.kind == "pong")
        if isinstance(payload, self._kv_payload):
            return _P_KV, _KV_PAYLOAD.pack(
                payload.op & 0xFF, payload.key & 0xFFFFFFFF, payload.version,
                payload.seqno, payload.sent_at,
                payload.source & 0xFFFFFFFFFFFFFFFF,
                payload.replier & 0xFFFFFFFFFFFFFFFF,
                payload.size, payload.stream_id)
        if isinstance(payload, self._topic_payload):
            return _P_TOPIC, _TOPIC_PAYLOAD.pack(
                payload.topic & 0xFFFFFFFF, payload.seqno, payload.sent_at,
                payload.source & 0xFFFFFFFFFFFFFFFF,
                payload.size, payload.stream_id)
        raise WireError(
            f"cannot encode payload of type {type(payload).__name__}; the "
            f"live wire supports None, bytes, str, int, float, bool, "
            f"AppPayload, KvPayload, TopicPayload, Message, and "
            f"WrappedMessage payloads")

    def _decode_payload_content(self, ptype: int, data: bytes,
                                offset: int) -> tuple[Any, int]:
        """Decode one payload; returns ``(payload, bytes_consumed)``."""
        start = offset
        if ptype == _P_NONE:
            return None, 0
        if ptype == _P_MESSAGE:
            message, end = self.decode_message(data, offset)
            return message, end - start
        if ptype == _P_WRAPPED:
            wrapped, end = self._decode_wrapped(data, offset)
            return wrapped, end - start
        try:
            if ptype == _P_BYTES:
                (length,) = _U32.unpack_from(data, offset)
                return bytes(_checked_slice(data, offset + 4, length)), 4 + length
            if ptype == _P_STR:
                (length,) = _U32.unpack_from(data, offset)
                return (_checked_slice(data, offset + 4,
                                       length).decode("utf-8"),
                        4 + length)
            if ptype == _P_BOOL:
                return struct.unpack_from("!?", data, offset)[0], 1
            if ptype == _P_INT:
                return struct.unpack_from("!q", data, offset)[0], 8
            if ptype == _P_FLOAT:
                return struct.unpack_from("!d", data, offset)[0], 8
            if ptype == _P_APP:
                seqno, sent_at, source, size, stream_id = \
                    _APP_PAYLOAD.unpack_from(data, offset)
                app_payload, _ = self._payload_classes()
                return (app_payload(seqno=seqno, sent_at=sent_at, source=source,
                                    size=size, stream_id=stream_id),
                        _APP_PAYLOAD.size)
            if ptype == _P_HEARTBEAT:
                (is_pong,) = struct.unpack_from("!?", data, offset)
                _, heartbeat = self._payload_classes()
                return heartbeat(kind="pong" if is_pong else "ping"), 1
            if ptype == _P_KV:
                (op, key, version, seqno, sent_at, source, replier, size,
                 stream_id) = _KV_PAYLOAD.unpack_from(data, offset)
                self._payload_classes()
                return (self._kv_payload(
                    op=op, key=key, version=version, seqno=seqno,
                    sent_at=sent_at, source=source, replier=replier,
                    size=size, stream_id=stream_id), _KV_PAYLOAD.size)
            if ptype == _P_TOPIC:
                topic, seqno, sent_at, source, size, stream_id = \
                    _TOPIC_PAYLOAD.unpack_from(data, offset)
                self._payload_classes()
                return (self._topic_payload(
                    topic=topic, seqno=seqno, sent_at=sent_at, source=source,
                    size=size, stream_id=stream_id), _TOPIC_PAYLOAD.size)
        except struct.error as exc:
            raise WireError(f"truncated payload (type {ptype}): {exc}") from exc
        raise WireError(f"unknown payload type tag {ptype} on the wire")

    def encode_payload(self, payload: Any) -> bytes:
        """Standalone payload block: a type tag byte plus the content."""
        ptype, content = self._encode_payload_content(payload)
        return bytes([ptype]) + content

    def decode_payload(self, data: bytes, offset: int = 0) -> tuple[Any, int]:
        """Inverse of :meth:`encode_payload`; returns ``(payload, end_offset)``."""
        if offset >= len(data):
            raise WireError("truncated payload block: missing type tag")
        payload, consumed = self._decode_payload_content(data[offset], data,
                                                         offset + 1)
        return payload, offset + 1 + consumed
