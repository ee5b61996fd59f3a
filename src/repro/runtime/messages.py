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
(:attr:`~MessageType.fixed_size`, :meth:`~MessageType.size_of`) walks it, and
:class:`WireCodec` compiles it into the encoder and decoder a live socket
runs, so a message's encoded length equals its priced length by construction.
The byte-level tables (field types, payload tags, frame kinds) are laid out
in docs/LIVE.md, "Wire format".  Simulated sends never serialize; generated
code reads fields as attributes (``msg.response``) or through the paper's
``field()`` primitive.

Message construction is protocol-plane hot-path work — one instance per send
on every node — so :class:`Message` is a ``__slots__`` envelope with a size
memoised on first read.
"""

from __future__ import annotations

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


def _read_block(data: bytes, offset: int, text: bool) -> tuple[Any, int]:
    """A length-prefixed block: ``(bytes, or str if text, end offset)``.

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


class Message:
    """An instance of a message type travelling between two overlay nodes.

    ``fields`` holds the declared field values; ``payload`` carries opaque
    application data (or a wrapped higher-layer message) of ``payload_size``
    bytes.  ``source`` is filled by the runtime on reception with the sender's
    host address, matching the paper's implicit ``from`` variable.

    A slotted envelope: the wire size is memoised on first read (the type's
    precomputed fixed size plus the value-dependent fields).
    """

    __slots__ = ("type", "fields", "payload", "payload_size", "priority",
                 "source", "dest", "dest_key", "protocol", "_size")

    def __init__(self, type: MessageType, fields: Optional[dict[str, Any]] = None,
                 payload: Any = None, payload_size: int = 0, priority: int = -1,
                 source: Optional[int] = None, dest: Optional[int] = None,
                 dest_key: Optional[int] = None, protocol: str = "") -> None:
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
        self._size: Optional[int] = None

    @property
    def name(self) -> str:
        return self.type.name

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
#: Everything a bad value can make an encoder raise; re-raised as WireError.
_ENCODE_ERRORS = (struct.error, TypeError, ValueError, OverflowError)


def emit_codec(protocol: str, message_type: MessageType) -> str:
    """Python source of one message type's encoder and decoder, from its plan.

    ``encode`` appends the type's bytes to a list of parts — behind a message
    header, or with a *source* behind a wrapped one: the header and the
    leading run of fixed-width fields go through *one* struct, each field's
    coercion is written out (an unset field travels as zero, an unsigned one
    masks to its width, a signed one is left to overflow), and lists and
    strings are loops of their own.  ``decode`` reads the fields back out of
    ``data`` from ``offset``.  Neither catches: the codec turns what they
    raise into :class:`WireError`.  docs/LIVE.md, "What the codec compiles",
    shows the text for ``chord.lookup``.
    """
    structs, encode, decode = [], [], []   # lines of the text, by section
    head_at, lead_fmt, lead_args = 0, "", ""
    for index, op in enumerate(message_type._plan):
        fmt = op[0] if type(op) is tuple else FIELD_FORMATS[op.type_name]
        if fmt is not None:
            structs.append(f"s{index} = Struct('!{fmt}')")
        if type(op) is tuple:
            _, names, masks = op
            args = [f"v{index}_{k}" for k in range(len(names))]
            for arg, field, mask in zip(args, names, masks):
                encode += [f"{arg} = get({field!r})",
                           f"{arg} = 0 if {arg} is None else int({arg}) & {mask:#x}"
                           if mask else f"if {arg} is None: {arg} = 0"]
            if index:
                encode.append(f"parts.append(s{index}.pack({', '.join(args)}))")
            else:   # the header's struct takes this run in
                head_at, lead_fmt = len(encode), fmt
                lead_args = "".join(f", {arg}" for arg in args)
            decode += [("fields.update(" if decode else "fields = dict(")
                       + f"zip({names!r}, s{index}.unpack_from(data, offset)))",
                       f"offset += {struct.calcsize('!' + fmt)}"]
            continue
        if fmt is None:   # a string, or each string of a list: a block
            put = ["text = str({}).encode('utf-8')",
                   "parts += (u32(len(text)), text)"]
            take = ["item, offset = read_block(data, offset, True)"]
        else:
            put = [f"parts.append(s{index}.pack(0 if item is None else item))"]
            take = [f"item = s{index}.unpack_from(data, offset)[0]",
                    f"offset += {FIELD_TYPE_SIZES[op.type_name]}"]
        decode = decode or ["fields = {}"]
        if op.is_list:
            encode += [f"items = get({op.name!r}) or ()",
                       "parts.append(u32(len(items)))", "for item in items:",
                       *("    " + line.format("item") for line in put)]
            decode += ["(count,) = u32_from(data, offset)", "offset += 4",
                       f"fields[{op.name!r}] = items = []",
                       "for _ in range(count):",
                       *("    " + line for line in take),
                       "    items.append(item)"]
        else:
            encode += [line.format(f"get({op.name!r}) or ''") for line in put]
            decode += [*take, f"fields[{op.name!r}] = item"]
    ids = f"{wire_id(protocol):#x}, {wire_id(message_type.name):#x}"
    heads = (_MESSAGE_HEADER.format + lead_fmt, _WRAPPED_HEADER.format + lead_fmt)
    encode[head_at:head_at] = [
        "if source is None:",
        f"    parts.append(head.pack({WIRE_VERSION}, ptype, priority, {ids}, "
        f"payload_size{lead_args}))",
        "else:",
        f"    parts.append(wrapped_head.pack(ptype, {ids}, payload_size, "
        f"source{lead_args}))"]
    return "\n".join([
        *structs,
        f"head, wrapped_head = Struct({heads[0]!r}), Struct({heads[1]!r})", "",
        "def encode(parts, fields, ptype, payload_size, priority, source):",
        "    get = fields.get",
        *("    " + line for line in encode), "",
        "def decode(data, offset):",
        *("    " + line for line in decode or ["fields = {}"]),
        "    return fields, offset", ""])


def _joined(parts: list, framing: int) -> bytes:
    """*parts* as one bytes object — the one copy encoding makes — refused
    when what it carries behind *framing* bytes is over the ceiling."""
    data = b"".join(parts)
    if len(data) - framing > MAX_WIRE_SIZE:
        raise WireError(
            f"encoded to {len(data) - framing} bytes, over the "
            f"{MAX_WIRE_SIZE}-byte codec ceiling (a runaway payload? "
            f"live mode fragments datagrams, but not this big)")
    return data


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

    Building one *compiles*: each type's :func:`emit_codec` text is ``exec``'d
    once, so a frame runs its type's own encoder or decoder and nothing walks
    a plan.  The functions stay on the codec, never on a :class:`MessageType`:
    the registry shares its types between every run in the process, and a
    message pickles its type by value.
    """

    def __init__(self, catalogs: Mapping[str, MessageCatalog]) -> None:
        self._protocols: dict[int, str] = {}
        #: (protocol, type name) -> the type's compiled encoder.
        self._encoders: dict[tuple[str, str], Any] = {}
        #: (protocol id, type id) -> (protocol, type, its compiled decoder).
        self._decoders: dict[tuple[int, int], tuple] = {}
        for protocol, catalog in catalogs.items():
            proto_id = wire_id(protocol)
            if proto_id in self._protocols:
                raise WireError(f"protocol id collision between {protocol!r} "
                                f"and {self._protocols[proto_id]!r}")
            self._protocols[proto_id] = protocol
            for message_type in catalog:
                key = proto_id, wire_id(message_type.name)
                if key in self._decoders:
                    raise WireError(
                        f"message id collision in protocol {protocol!r}: "
                        f"{message_type.name!r} vs {self._decoders[key][1].name!r}")
                scope = {"Struct": struct.Struct, "read_block": _read_block,
                         "u32": _U32.pack, "u32_from": _U32.unpack_from}
                exec(emit_codec(protocol, message_type), scope)
                self._encoders[protocol, message_type.name] = scope["encode"]
                self._decoders[key] = protocol, message_type, scope["decode"]
        # The record classes are resolved when a codec is built, not at
        # module scope: their package imports this module.
        from ..apps import payload as records
        #: payload class -> (tag, Struct, the function packing one), in the
        #: order an ``isinstance`` scan tries them.  A record's packer is
        #: compiled like a message's: one ``pack`` over its attributes, the
        #: unsigned ones masked.
        rows = {}
        for cls, (tag, fmt) in PRIMITIVE_PAYLOADS.items():
            packer = struct.Struct("!" + fmt)
            rows[cls] = (tag, packer, packer.pack)
        for name, (tag, fmt) in RECORD_PAYLOADS.items():
            cls, packer = getattr(records, name), struct.Struct("!" + fmt)
            args = ", ".join(
                f"p.{field.name} & {_mask(char):#x}" if _mask(char)
                else f"p.{field.name}"
                for field, char in zip(dataclass_fields(cls), fmt))
            rows[cls] = (tag, packer,
                         eval(f"lambda p: pack({args})", {"pack": packer.pack}))
        self._payload_rows: dict[type, tuple] = rows
        self._payload_tags = {tag: (cls, packer)
                              for cls, (tag, packer, _) in rows.items()}

    @classmethod
    def for_agents(cls, agent_classes) -> "WireCodec":
        """Build a codec covering every protocol of a stack (lowest first)."""
        catalogs: dict[str, MessageCatalog] = {}
        for agent_class in agent_classes:
            catalogs[agent_class.PROTOCOL] = MessageCatalog(
                list(agent_class.MESSAGE_TYPES))
        return cls(catalogs)

    def protocols(self) -> list[str]:
        return sorted(self._protocols.values())

    # -------------------------------------------------------------- messages
    # A message and a wrapped message differ in their headers only; behind it
    # both are fields + payload + zero padding up to the declared payload_size.
    def _encode_typed(self, parts: list, item, name: str, priority: int,
                      source: Optional[int] = None) -> None:
        """Append a message — with a *source*, a wrapped one — to *parts*."""
        encode = self._encoders.get((item.protocol, name))
        if encode is None:
            raise WireError(
                f"message {name!r} of protocol {item.protocol!r} is one this "
                f"codec was not built for (knows: {self.protocols()})")
        payload_size = int(item.payload_size)
        content: list = []
        ptype = _P_NONE if item.payload is None \
            else self._encode_content(content, item.payload)
        try:
            encode(parts, item.fields, ptype, payload_size, priority, source)
        except _ENCODE_ERRORS as exc:   # a wrapped payload_size is a u16
            raise WireError(
                f"cannot encode message {name!r}, fields {dict(item.fields)!r}, "
                f"payload_size {payload_size}: {exc}") from exc
        length = sum(map(len, content)) if content else 0
        parts += content
        if length < payload_size:   # synthetic payload bytes travel as zeros
            parts.append(bytes(payload_size - length))

    def _decode_typed(self, data: bytes, offset: int, proto_id: int,
                      type_id: int, ptype: int, payload_size: int) -> tuple:
        """What follows either header: protocol, type, fields, payload, end."""
        entry = self._decoders.get((proto_id, type_id))
        if entry is None:
            raise WireError(
                f"unknown message id {type_id:#x} for protocol id {proto_id:#x} "
                f"({self._protocols.get(proto_id)!r}) on the wire; both "
                f"endpoints must be built from the same specifications")
        protocol, message_type, decode = entry
        try:
            fields, offset = decode(data, offset)
        except struct.error as exc:
            raise WireError(f"truncated wire data for message "
                            f"{message_type.name!r}: {exc}") from exc
        payload, end = self._decode_content(ptype, data, offset) if ptype \
            else (None, offset)
        if end < offset + payload_size:   # skip the zero padding
            end = offset + payload_size
            if end > len(data):
                raise WireError(
                    f"truncated wire data: message {message_type.name!r} "
                    f"declares a {payload_size}-byte payload at offset "
                    f"{offset}, buffer has {len(data)}")
        return protocol, message_type, fields, payload, end

    def encode_message(self, message: Message) -> bytes:
        """Encode a protocol message; ``len(result) == message.size`` for
        every supported payload that fits its declared ``payload_size``."""
        parts: list = []
        self._encode_typed(parts, message, message.type.name, message.priority)
        return _joined(parts, 0)

    def decode_message(self, data: bytes, offset: int = 0) -> tuple[Message, int]:
        """Decode one message; returns ``(message, end_offset)``."""
        try:
            version, ptype, priority, proto_id, type_id, payload_size = \
                _MESSAGE_HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise WireError(f"truncated message header: {exc}") from exc
        if version != WIRE_VERSION:
            raise WireError(f"wire version {version} != {WIRE_VERSION}")
        protocol, message_type, fields, payload, end = self._decode_typed(
            data, offset + _MESSAGE_HEADER.size, proto_id, type_id, ptype,
            payload_size)
        message = Message(type=message_type, fields=fields, payload=payload,
                          payload_size=payload_size, priority=priority,
                          protocol=protocol)
        return message, end

    def _decode_wrapped(self, data: bytes,
                        offset: int) -> tuple[WrappedMessage, int]:
        try:
            ptype, proto_id, type_id, payload_size, source = \
                _WRAPPED_HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise WireError(f"truncated wrapped-message header: {exc}") from exc
        protocol, message_type, fields, payload, end = self._decode_typed(
            data, offset + _WRAPPED_HEADER.size, proto_id, type_id, ptype,
            payload_size)
        source = source or None
        wrapped = WrappedMessage(
            protocol=protocol, name=message_type.name, fields=fields,
            payload=payload, payload_size=payload_size, source=source,
            source_key=hash_key(source) if source is not None else None,
            size=message_type.size_of(fields, payload_size))
        return wrapped, end

    # -------------------------------------------------------------- payloads
    def _encode_content(self, parts: list, payload: Any) -> int:
        """Append one payload's content to *parts*; returns its tag."""
        if payload is None:
            return _P_NONE
        if isinstance(payload, Message):
            self._encode_typed(parts, payload, payload.type.name, payload.priority)
            return _P_MESSAGE
        if isinstance(payload, WrappedMessage):
            self._encode_typed(parts, payload, payload.name, 0,
                               (payload.source or 0) & 0xFFFFFFFF)
            return _P_WRAPPED
        if isinstance(payload, (bytes, bytearray, memoryview, str)):
            text = isinstance(payload, str)
            data = payload.encode("utf-8") if text else bytes(payload)
            parts += (_U32.pack(len(data)), data)
            return _P_STR if text else _P_BYTES
        if isinstance(payload, _Heartbeat):
            parts.append(_FLAG.pack(payload.kind == "pong"))
            return _P_HEARTBEAT
        for cls, (tag, _, pack) in self._payload_rows.items():
            if isinstance(payload, cls):
                try:
                    parts.append(pack(payload))
                except _ENCODE_ERRORS as exc:
                    raise WireError(f"cannot encode payload {cls.__name__} "
                                    f"{payload!r}: {exc}") from exc
                return tag
        raise WireError(
            f"cannot encode payload of type {type(payload).__name__}; "
            f"the live wire supports None, bytes, str, int, float, bool, "
            f"Message, WrappedMessage and the records "
            f"{sorted(RECORD_PAYLOADS)}")

    def _decode_content(self, ptype: int, data: bytes,
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

    def encode_payload(self, payload: Any, prefix: bytes = b"") -> bytes:
        """Standalone payload block — a type tag byte plus the content —
        behind *prefix* (a socket's frame header): one join builds the frame."""
        parts = [prefix, b""]   # the tag is known once the content is in
        parts[1] = bytes((self._encode_content(parts, payload),))
        return _joined(parts, len(prefix) + 1)

    def decode_payload(self, data: bytes, offset: int = 0) -> tuple[Any, int]:
        """Inverse of :meth:`encode_payload`; returns ``(payload, end_offset)``."""
        if offset >= len(data):
            raise WireError("truncated payload block: missing type tag")
        return self._decode_content(data[offset], data, offset + 1)
