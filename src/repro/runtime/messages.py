"""Typed protocol messages: what one costs in simulation, what it is on a socket.

A ``mac`` specification declares its messages, each bound to a transport
instance (lowest layer) or service class (higher layers)::

    messages {
        BEST_EFFORT join { }
        HIGHEST join_reply { int response; }
    }

The runtime turns each declaration into a :class:`MessageType`, whose fields
compile — once, at spec-compile time, where an unknown field type is rejected
— into one *plan*.  The size model the emulator charges
(:attr:`~MessageType.fixed_size`, :meth:`~MessageType.size_of`) and the field
encoder and decoder :class:`WireCodec` puts on a live socket all walk that
plan, so a message's encoded length equals its priced length by construction.
The byte-level tables (field types, payload tags, frame kinds) are laid out
in docs/LIVE.md, "Wire format".  Simulated sends never serialize; generated
code reads fields as attributes (``msg.response``) or through the paper's
``field()`` primitive.

Message construction is protocol-plane hot-path work — one instance per send
on every node — so :class:`Message` is a ``__slots__`` envelope with a lazy
``msg_id`` (the process-wide counter is only consumed if somebody reads it)
and a size memoised on first read.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Iterator, Mapping, Optional

from .keys import hash_key

#: struct format character of each field type: the one table the size model,
#: the encoder and the decoder read.  ``string`` has none — it is a 4-byte
#: length prefix plus UTF-8 bytes, priced and packed per value.
FIELD_FORMATS: dict[str, Optional[str]] = {
    "int": "i", "long": "q", "double": "d", "float": "f", "bool": "?",
    "key": "I", "ipaddr": "I", "string": None, "neighbor": "Q",
}

_U32 = struct.Struct("!I")   # list counts and the length prefix of a block

#: Serialized size, in bytes, of each field type (of a string: its length
#: prefix; the UTF-8 bytes are charged per value).
FIELD_TYPE_SIZES: dict[str, int] = {
    name: struct.calcsize("!" + fmt) if fmt else _U32.size
    for name, fmt in FIELD_FORMATS.items()}

#: Message envelope: version, payload tag, priority, protocol id,
#: message-type id, payload size.
_MESSAGE_HEADER = struct.Struct("!BBhIII")

#: Fixed per-message overhead the size model charges: the envelope's width.
MESSAGE_HEADER_BYTES = _MESSAGE_HEADER.size

#: Wrapped-message envelope: payload tag, protocol id, message-type id,
#: payload size (u16 — bounded by the live datagram cap), original source.
#: 15 bytes, so a wrapped message encodes within the MESSAGE_HEADER_BYTES its
#: size model charges.
_WRAPPED_HEADER = struct.Struct("!BIIHI")

WIRE_VERSION = 1

#: Largest encodable message.  This used to be the single-UDP-datagram
#: ceiling of live mode (60 000 bytes); the live socket layer now fragments
#: and reassembles oversized frames (:data:`repro.transport.udp.
#: FRAGMENT_THRESHOLD`), so the cap is only a runaway-allocation guard —
#: large payloads degrade to multiple datagrams instead of raising.
MAX_WIRE_SIZE = 16_000_000

# Payload tags of the classes the codec handles arm by arm; the regular ones
# are rows of the two tables below.  Together: the codec's closed set.
_P_NONE = 0
_P_MESSAGE = 1
_P_WRAPPED = 2
_P_BYTES = 4
_P_STR = 5
_P_HEARTBEAT = 9

#: Primitive payloads → (tag, struct format), in the order an ``isinstance``
#: scan must try them (``bool`` is an ``int``, and never encodes as one).
PRIMITIVE_PAYLOADS = {bool: (8, "?"), int: (6, "q"), float: (7, "d")}

#: Record payloads — the dataclasses of :mod:`repro.apps.payload`, by name
#: because that package imports this module — → (tag, struct format of the
#: fields in declaration order).
RECORD_PAYLOADS = {
    "AppPayload": (3, "qdQqq"),
    "KvPayload": (10, "BIqqdQQqq"),
    "TopicPayload": (11, "IqdQqq"),
}

_FLAG = struct.Struct("!?")   # the heartbeat's content: is it the pong?


class MessageError(ValueError):
    """Raised for unknown message types, field types, or malformed access."""


class WireError(MessageError):
    """Raised when a value cannot be encoded to (or decoded from) the wire."""


def wire_id(name: str) -> int:
    """Stable 32-bit identifier of a protocol or message-type name."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


def _mask(fmt: str) -> int:
    """All-ones of an unsigned format's width, 0 for any other format.

    Encode masks unsigned values to their width (ring keys are already in
    range; masking makes encode total); signed overflow raises instead.
    """
    return (1 << 8 * struct.calcsize("!" + fmt)) - 1 if fmt.isupper() else 0


def _block(data: bytes) -> bytes:
    """*data* behind its 4-byte length prefix."""
    return _U32.pack(len(data)) + data


def _read_block(data: bytes, offset: int, text: bool) -> tuple[Any, int]:
    """Inverse of :func:`_block`: ``(bytes, or str if text, end offset)``.

    A corrupt or truncated datagram — a length prefix pointing past the end
    of the buffer, text that is not UTF-8 — must raise (and be counted as
    line noise by the socket layer), never hand a short or mangled value to
    the protocol stack.
    """
    (length,) = _U32.unpack_from(data, offset)
    offset += 4
    end = offset + length
    if end > len(data):
        raise WireError(
            f"truncated wire data: need {length} bytes at offset {offset}, "
            f"buffer has {len(data)}")
    if not text:
        return bytes(data[offset:end]), end
    try:
        return str(data[offset:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"corrupt wire data: string at offset {offset} is "
                        f"not UTF-8: {exc}") from exc


class FieldSpec:
    """One declared field of a message type."""

    __slots__ = ("name", "type_name", "is_list")

    def __init__(self, name: str, type_name: str, is_list: bool = False) -> None:
        self.name = name
        self.type_name = type_name
        #: For list-typed fields ("neighbor list", "int list"), the element type.
        self.is_list = is_list

    def size_of(self, value: Any) -> int:
        """Wire bytes *value* takes in this field."""
        return MessageType("", (self,)).size_of({self.name: value}) \
            - MESSAGE_HEADER_BYTES

    def __repr__(self) -> str:   # evaluable: the code generator emits it
        return f"FieldSpec({self.name!r}, {self.type_name!r}, is_list={self.is_list!r})"


class MessageType:
    """A declared message type: name, fields, and default transport binding.

    The fields compile once, at construction, into a plan with two kinds of
    op.  A run of consecutive fixed-width fields collapses into one tuple
    ``(format, names, masks)`` — one struct for all of them, summed with the
    header into :attr:`fixed_size`; a value-dependent field (a list: u32
    count, then the items; a string: a length-prefixed UTF-8 block) stays
    its :class:`FieldSpec`, and is all :meth:`size_of` visits per send.  A
    field with a type the plan does not know is a specification bug and
    raises :class:`MessageError` here — at spec-compile time — rather than
    silently charging a default at send time.
    """

    __slots__ = ("name", "fields", "transport", "fixed_size", "is_fixed_size",
                 "_plan", "_names")

    def __init__(self, name: str, fields: tuple = (),
                 transport: Optional[str] = None) -> None:
        self.name = name
        self.fields: tuple[FieldSpec, ...] = tuple(fields)
        self.transport = transport
        plan: list = []
        for spec in self.fields:
            if spec.type_name not in FIELD_FORMATS:
                raise MessageError(
                    f"message {name!r} field {spec.name!r} has unknown type "
                    f"{spec.type_name!r} (known: {sorted(FIELD_FORMATS)})"
                )
            fmt = FIELD_FORMATS[spec.type_name]
            if spec.is_list or fmt is None:
                plan.append(spec)
            elif plan and type(plan[-1]) is tuple:
                run_fmt, names, masks = plan[-1]
                plan[-1] = (run_fmt + fmt, names + (spec.name,),
                            masks + (_mask(fmt),))
            else:
                plan.append((fmt, (spec.name,), (_mask(fmt),)))
        self._plan = tuple(plan)
        runs = [op for op in plan if type(op) is tuple]
        #: Wire size shared by every instance: header plus all scalar fields.
        self.fixed_size = MESSAGE_HEADER_BYTES + sum(
            struct.calcsize("!" + run_fmt) for run_fmt, _, _ in runs)
        #: Whether that is all of it: wire size == fixed_size + payload_size.
        self.is_fixed_size = len(runs) == len(plan)
        self._names = frozenset(spec.name for spec in self.fields)

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
        for op in self._plan:
            if type(op) is tuple:
                continue   # a run: already in fixed_size
            value = values.get(op.name)
            if not op.is_list:
                total += 4 + len(str(value or "").encode("utf-8"))
            elif op.type_name == "string":
                total += 4 + sum(4 + len(str(item).encode("utf-8"))
                                 for item in (value or ()))
            else:
                try:
                    length = len(value)
                except TypeError:
                    length = 0
                total += 4 + FIELD_TYPE_SIZES[op.type_name] * length
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


@dataclass
class _Heartbeat:
    """Runtime-level heartbeat request/response payload (never reaches agents)."""

    kind: str  # "ping" or "pong"
    size: int = 8


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
class _Structs(dict):
    """Format → compiled :class:`struct.Struct`, built on first use.

    One per codec, never on a :class:`MessageType`: the registry shares its
    types between every run in the process and the sharded kernel pickles
    them by value with each cross-shard packet, and a Struct does not pickle.
    """

    def __missing__(self, fmt: str) -> struct.Struct:
        packer = self[fmt] = struct.Struct("!" + fmt)
        return packer


class WireCodec:
    """Byte-level codec for the message types of one protocol stack.

    Shared verbatim between the two execution modes: in simulation the size
    model (``MessageType.size_of``) *prices* each message, and in live mode
    this codec *materialises* it — for every supported payload shape the
    encoded length equals the priced length, so a live datagram occupies
    exactly the bytes the emulator would have charged.  Synthetic payload
    bytes (a record payload declared larger than its struct, or a ``None``
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
        self._structs = _Structs()
        # The record classes are resolved when a codec is built, not at
        # module scope: their package imports this module.
        from ..apps import payload as records
        #: payload class -> (tag, Struct, field names — None for a primitive
        #: — and their masks), in the order an ``isinstance`` scan tries them.
        rows = {cls: (tag, self._structs[fmt], None, None)
                for cls, (tag, fmt) in PRIMITIVE_PAYLOADS.items()}
        for name, (tag, fmt) in RECORD_PAYLOADS.items():
            cls = getattr(records, name)
            rows[cls] = (tag, self._structs[fmt],
                         tuple(field.name for field in dataclass_fields(cls)),
                         tuple(map(_mask, fmt)))
        self._payload_rows: dict[type, tuple] = rows
        self._payload_tags = {tag: (cls, packer)
                              for cls, (tag, packer, _, _) in rows.items()}

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

    def _protocol_id(self, kind: str, item) -> int:
        proto_id = self._names.get(item.protocol)
        if proto_id is None:
            raise WireError(
                f"{kind} {item.name!r} belongs to protocol {item.protocol!r}, "
                f"which this codec was not built for "
                f"(knows: {self.protocols()})")
        return proto_id

    # -------------------------------------------------------------- messages
    # A message and a wrapped message differ in their headers only; behind it
    # both are fields + payload + zero padding up to the declared payload_size.
    def _encode_body(self, header: bytes, message_type: MessageType,
                     values: Mapping[str, Any], content: bytes,
                     payload_size: int) -> bytes:
        out = [header]
        try:
            for op in message_type._plan:
                if type(op) is tuple:
                    fmt, names, masks = op
                    row = []
                    for name, mask in zip(names, masks):
                        value = values.get(name)
                        if value is None:   # unset fields travel as zero
                            value = 0
                        elif mask:
                            value = int(value) & mask
                        row.append(value)
                    out.append(self._structs[fmt].pack(*row))
                elif not op.is_list:
                    out.append(_block(
                        str(values.get(op.name) or "").encode("utf-8")))
                else:
                    items = values.get(op.name) or ()
                    out.append(_U32.pack(len(items)))
                    fmt = FIELD_FORMATS[op.type_name]
                    if fmt is None:
                        for item in items:
                            out.append(_block(str(item).encode("utf-8")))
                    else:
                        pack = self._structs[fmt].pack
                        for item in items:
                            out.append(pack(0 if item is None else item))
        except (struct.error, TypeError, ValueError) as exc:
            raise WireError(
                f"cannot encode message {message_type.name!r} fields "
                f"{dict(values)!r}: {exc}") from exc
        out.append(content)
        if len(content) < payload_size:
            out.append(b"\x00" * (payload_size - len(content)))
        return b"".join(out)

    def _decode_body(self, message_type: MessageType, data: bytes, offset: int,
                     ptype: int, payload_size: int) -> tuple[dict, Any, int]:
        fields: dict[str, Any] = {}
        try:
            for op in message_type._plan:
                if type(op) is tuple:
                    packer = self._structs[op[0]]
                    for name, value in zip(op[1],
                                           packer.unpack_from(data, offset)):
                        fields[name] = value
                    offset += packer.size
                elif not op.is_list:
                    fields[op.name], offset = _read_block(data, offset, True)
                else:
                    (count,) = _U32.unpack_from(data, offset)
                    offset += 4
                    items = fields[op.name] = []
                    fmt = FIELD_FORMATS[op.type_name]
                    if fmt is None:
                        for _ in range(count):
                            item, offset = _read_block(data, offset, True)
                            items.append(item)
                    else:
                        packer = self._structs[fmt]
                        for _ in range(count):
                            items.append(packer.unpack_from(data, offset)[0])
                            offset += packer.size
        except struct.error as exc:
            raise WireError(
                f"truncated wire data for message {message_type.name!r}: {exc}"
            ) from exc
        payload, end = self._decode_payload_content(ptype, data, offset)
        return fields, payload, max(end, offset + payload_size)   # skip padding

    def encode_message(self, message: Message) -> bytes:
        """Encode a protocol message; ``len(result) == message.size`` for
        every supported payload that fits its declared ``payload_size``."""
        proto_id = self._protocol_id("message", message)
        ptype, content = self._encode_payload_content(message.payload)
        payload_size = int(message.payload_size)
        encoded = self._encode_body(
            _MESSAGE_HEADER.pack(WIRE_VERSION, ptype, message.priority,
                                 proto_id, wire_id(message.type.name),
                                 payload_size),
            message.type, message.fields, content, payload_size)
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
        fields, payload, offset = self._decode_body(
            message_type, data, offset + _MESSAGE_HEADER.size, ptype,
            payload_size)
        message = Message(type=message_type, fields=fields, payload=payload,
                          payload_size=payload_size, priority=priority,
                          protocol=protocol)
        return message, offset

    def _encode_wrapped(self, wrapped: WrappedMessage) -> bytes:
        proto_id = self._protocol_id("wrapped message", wrapped)
        _, message_type = self._message_type(proto_id, wire_id(wrapped.name))
        payload_size = int(wrapped.payload_size)
        if payload_size > 0xFFFF:
            raise WireError(
                f"wrapped message {wrapped.name!r} declares a "
                f"{payload_size}-byte payload; live mode caps wrapped "
                f"payloads at 65535 bytes")
        ptype, content = self._encode_payload_content(wrapped.payload)
        return self._encode_body(
            _WRAPPED_HEADER.pack(ptype, proto_id, wire_id(wrapped.name),
                                 payload_size,
                                 (wrapped.source or 0) & 0xFFFFFFFF),
            message_type, wrapped.fields, content, payload_size)

    def _decode_wrapped(self, data: bytes,
                        offset: int) -> tuple[WrappedMessage, int]:
        try:
            ptype, proto_id, type_id, payload_size, source = \
                _WRAPPED_HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise WireError(f"truncated wrapped-message header: {exc}") from exc
        protocol, message_type = self._message_type(proto_id, type_id)
        fields, payload, offset = self._decode_body(
            message_type, data, offset + _WRAPPED_HEADER.size, ptype,
            payload_size)
        source = source or None
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
            return _P_BYTES, _block(bytes(payload))
        if isinstance(payload, str):
            return _P_STR, _block(payload.encode("utf-8"))
        if isinstance(payload, _Heartbeat):
            return _P_HEARTBEAT, _FLAG.pack(payload.kind == "pong")
        for cls, (tag, packer, names, masks) in self._payload_rows.items():
            if isinstance(payload, cls):
                break
        else:
            raise WireError(
                f"cannot encode payload of type {type(payload).__name__}; "
                f"the live wire supports None, bytes, str, int, float, bool, "
                f"Message, WrappedMessage and the records "
                f"{sorted(RECORD_PAYLOADS)}")
        if names is None:
            return tag, packer.pack(payload)
        values = []
        for name, mask in zip(names, masks):
            value = getattr(payload, name)
            values.append(value & mask if mask else value)
        return tag, packer.pack(*values)

    def _decode_payload_content(self, ptype: int, data: bytes,
                                offset: int) -> tuple[Any, int]:
        """Decode one payload's content; returns ``(payload, end_offset)``."""
        if ptype == _P_NONE:
            return None, offset
        if ptype == _P_MESSAGE:
            return self.decode_message(data, offset)
        if ptype == _P_WRAPPED:
            return self._decode_wrapped(data, offset)
        try:
            if ptype == _P_BYTES or ptype == _P_STR:
                return _read_block(data, offset, ptype == _P_STR)
            if ptype == _P_HEARTBEAT:
                (is_pong,) = _FLAG.unpack_from(data, offset)
                return _Heartbeat(kind="pong" if is_pong else "ping"), offset + 1
            row = self._payload_tags.get(ptype)
            if row is not None:
                cls, packer = row
                return (cls(*packer.unpack_from(data, offset)),
                        offset + packer.size)
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
        return self._decode_payload_content(data[offset], data, offset + 1)
