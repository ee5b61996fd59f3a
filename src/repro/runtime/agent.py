"""The MACEDON agent: the runtime object generated protocol code runs inside.

A *mac* specification compiles (via :mod:`repro.codegen`) into a subclass of
:class:`Agent`.  The subclass carries the protocol's declarations as class
attributes (states, neighbor types, messages, transports, state variables,
timers, transitions) and one method per transition.  Everything else — event
dispatch, FSM state scoping, neighbor management, the timer subsystem,
message transmission, layering upcalls/downcalls, tracing, failure-detection
hooks — lives here and is shared by every protocol, which is exactly the
paper's argument for fairness: protocols differ only in their
specifications, never in their runtime machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .handlers import API_NAMES, HANDLER_PARAMS, UNHANDLED, handler_name
from .keys import KeySpace
from .messages import Message, MessageCatalog, MessageType
from .neighbors import NeighborSet, NeighborType
from .timers import TimerSpec, TimerTable
from .tracing import TraceLevel

#: Neighbor-type constants used by the notify() upcall, as in the paper's sample.
NBR_TYPE_PARENT = 1
NBR_TYPE_CHILDREN = 2
NBR_TYPE_SIBLINGS = 3
NBR_TYPE_PEERS = 4


class AgentError(RuntimeError):
    """Raised for protocol-level misuse detected by the runtime."""


# --------------------------------------------------------------------------- specs
@dataclass(frozen=True)
class TransitionSpec:
    """One transition declaration: (state expression, event) -> method."""

    kind: str                 # "api" | "timer" | "recv" | "forward"
    name: str                 # API name, timer name, or message name
    state_expr: str           # textual state expression, e.g. "!(joining|init)"
    method: str               # name of the generated method on the agent class
    locking: str = "write"    # "read" or "write"

    def __post_init__(self) -> None:
        if self.kind not in ("api", "timer", "recv", "forward"):
            raise ValueError(f"unknown transition kind {self.kind!r}")
        if self.locking not in ("read", "write"):
            raise ValueError(f"unknown locking mode {self.locking!r}")
        if self.kind == "api" and self.name not in API_NAMES:
            raise ValueError(f"unknown API transition name {self.name!r}")


@dataclass(frozen=True)
class StateVarSpec:
    """One state-variable declaration.

    ``kind`` is one of:

    * ``"var"`` — a plain scalar of ``type_name`` (int, double, bool, key,
      ipaddr, string) with an optional default;
    * ``"neighbor_set"`` — an instance of the declared neighbor type
      ``type_name``, optionally ``fail_detect``;
    * ``"timer"`` — a timer with optional default ``period``;
    * ``"map"`` / ``"list"`` / ``"set"`` — container state for protocol
      bookkeeping (Scribe group tables, Bullet summaries, …).
    """

    name: str
    kind: str
    type_name: str = ""
    default: Any = None
    fail_detect: bool = False
    period: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("var", "neighbor_set", "timer", "map", "list", "set"):
            raise ValueError(f"unknown state variable kind {self.kind!r}")


_SCALAR_DEFAULTS = {
    "int": 0, "long": 0, "double": 0.0, "float": 0.0, "bool": False,
    "key": 0, "ipaddr": 0, "string": "",
}


# ------------------------------------------------------------------------- agent
class Agent:
    """Base class of all generated protocol agents."""

    # ---- class attributes overridden by generated subclasses -----------------
    PROTOCOL: str = "agent"
    BASE_PROTOCOL: Optional[str] = None
    ADDRESSING: str = "ip"                    # "ip" or "hash"
    TRACE: TraceLevel = TraceLevel.OFF
    CONSTANTS: dict[str, Any] = {}
    STATES: tuple[str, ...] = ()
    NEIGHBOR_TYPES: dict[str, NeighborType] = {}
    TRANSPORT_DECLS: tuple[tuple[str, str], ...] = ()   # (kind, name) pairs
    MESSAGE_TYPES: tuple[MessageType, ...] = ()
    STATE_VARS: tuple[StateVarSpec, ...] = ()
    TRANSITIONS: tuple[TransitionSpec, ...] = ()
    KEY_SPACE: KeySpace = KeySpace()
    #: Per-class tables, bound by __init_subclass__: kind -> event -> handler;
    #: declared transport names, the first the default one.
    _handlers: dict[str, dict[str, Callable[..., bool]]] = {
        kind: {} for kind in HANDLER_PARAMS}
    _transport_names: tuple[str, ...] = ()
    _default_transport: Optional[str] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Bind what the class's declarations fix for every instance.

        The code generator writes one handler per ``(kind, event)`` into the
        class next to its ``TRANSITIONS``; a class that declares
        ``TRANSITIONS`` without them is refused below.
        """
        super().__init_subclass__(**kwargs)
        handlers = cls._handlers = {kind: {} for kind in HANDLER_PARAMS}
        for spec in cls.TRANSITIONS:
            handler = getattr(cls, handler_name(spec.kind, spec.name), None)
            if handler is not None:
                handlers[spec.kind][spec.name] = handler
        for spec in cls.TRANSITIONS:
            # Each exists and is reached from exactly its own handler (else:
            # stale generated module, or TRANSITIONS changed behind handlers).
            reached_from = [(kind, event) for kind, table in handlers.items()
                            for event, handler in table.items()
                            if spec.method in handler.__code__.co_names]
            if not hasattr(cls, spec.method) \
                    or reached_from != [(spec.kind, spec.name)]:
                raise AgentError(
                    f"{cls.PROTOCOL}: transition {spec.method!r} is missing or "
                    f"reached from handlers {reached_from}, not only its own")
        names = cls._transport_names = tuple(
            name for _, name in cls.TRANSPORT_DECLS)
        cls._default_transport = names[0] if names else None

    def __init__(self, node: "MacedonNode") -> None:  # noqa: F821 (forward ref)
        self.node = node
        self.simulator = node.simulator
        self.my_addr: int = node.address
        self.key_space = self.KEY_SPACE
        self.my_key: int = self.key_space.hash(self.my_addr)
        self.lower: Optional[Agent] = None
        self.upper: Optional[Agent] = None
        self.bootstrap_addr: Optional[int] = None
        self.bootstrap_key: Optional[int] = None
        self._state = "init"
        self._rng = node.simulator.fork_rng(f"{self.PROTOCOL}:{node.address}")
        self._timers = TimerTable(node.simulator, self._on_timer_expired)
        self._fail_detect_sets: list[NeighborSet] = []
        self._group_members: dict[int, set[int]] = {}
        self.initialized = False
        #: Trace gates, precomputed so hot paths skip the tracer call (and
        #: its argument formatting) entirely when the record would be
        #: filtered anyway.  A gate opens if *any* category behind it is
        #: enabled at this agent's level under the run's tracer policy;
        #: ``Tracer.record`` still filters exactly per category.
        tracer = node.tracer
        floor = tracer.level_floor
        if floor is not None and floor > self.TRACE:
            # Per-run verbosity raise: an *instance* attribute, so the
            # (cached) generated class keeps its spec-declared level.
            self.TRACE = floor
        trace, threshold = self.TRACE, tracer.threshold
        self._trace_med = any(
            trace >= threshold(category)
            for category in ("transition", "message_send", "message_recv"))
        self._trace_high = any(
            trace >= threshold(category)
            for category in ("timer", "neighbor", "debug"))

        for name, value in self.CONSTANTS.items():
            setattr(self, name, value)
        self._init_state_vars()

    # ------------------------------------------------------------------- setup
    def _init_state_vars(self) -> None:
        for spec in self.STATE_VARS:
            if spec.kind == "neighbor_set":
                neighbor_type = self.NEIGHBOR_TYPES.get(spec.type_name)
                if neighbor_type is None:
                    raise AgentError(
                        f"{self.PROTOCOL}: state variable {spec.name!r} uses "
                        f"undeclared neighbor type {spec.type_name!r}"
                    )
                value: Any = NeighborSet(spec.name, neighbor_type,
                                         fail_detect=spec.fail_detect,
                                         rng=self._rng)
                if spec.fail_detect:
                    self._fail_detect_sets.append(value)
                    value.add_observer(self._on_fail_detect_change)
            elif spec.kind == "timer":
                value = self._timers.declare(TimerSpec(spec.name, spec.period))
            elif spec.kind == "map":
                value = dict(spec.default) if spec.default else {}
            elif spec.kind == "list":
                value = list(spec.default) if spec.default else []
            elif spec.kind == "set":
                value = set(spec.default) if spec.default else set()
            else:
                default = spec.default
                if default is None:
                    default = _SCALAR_DEFAULTS.get(spec.type_name, None)
                value = default
            setattr(self, spec.name, value)

    # ---------------------------------------------------------------- identity
    @property
    def protocol_name(self) -> str:
        return self.PROTOCOL

    @property
    def state(self) -> str:
        """Current FSM state."""
        return self._state

    @property
    def is_bootstrap(self) -> bool:
        return self.bootstrap_addr is not None and self.bootstrap_addr == self.my_addr

    def now(self) -> float:
        return self.simulator.now

    def random(self) -> float:
        return self._rng.random()

    def random_int(self, upper: int) -> int:
        """Uniform integer in [0, upper)."""
        if upper <= 0:
            return 0
        return self._rng.randrange(upper)

    def hash_of(self, value: Any) -> int:
        """Hash an identifier into the protocol's key space."""
        return self.key_space.hash(value)

    # ------------------------------------------------------------------ events
    # Every message, timer and API event crosses exactly one of these three
    # entry points: look up the handler bound for the event name, call it.
    def api_call(self, name: str, *args: Any) -> Any:
        """Invoke an API transition on this agent (from the app or an upper
        layer) with the values ``API_PARAMS[name]`` names."""
        if name == "init":
            self.bootstrap_addr = bootstrap = args[0]
            if bootstrap is not None:
                self.bootstrap_key = self.key_space.hash(bootstrap)
            self.initialized = True
        result = self._handle("api", name, *args)
        return self._default_api(name, *args) if result is UNHANDLED else result

    def _default_api(self, name: str, *args: Any) -> Any:
        """Behaviour when a protocol declares no transition for an API call.

        Data-path and group calls fall through to the layer below (so an
        application talking to Scribe can still ``route`` through Pastry);
        everything else is a silent no-op, matching the generated C++ stubs.
        """
        passthrough = {"route", "routeIP", "multicast", "anycast", "collect",
                       "create_group", "join", "leave", "downcall_ext"}
        if name in passthrough and self.lower is not None:
            return self.lower.api_call(name, *args)
        return None

    def _on_timer_expired(self, timer_name: str) -> None:
        self._handle("timer", timer_name)

    def receive_message(self, message: Message) -> bool:
        """Dispatch a received protocol message (a ``forward`` event arrives
        through :meth:`handle_lower_forward`)."""
        handler = self._handlers["recv"].get(message.type.name)
        return handler is not None and handler(self, message) is not UNHANDLED

    def _handle(self, kind: str, name: str, *event: Any) -> Any:
        """Run the handler for *kind* event *name*: what its transition
        returned, or ``UNHANDLED`` when none is declared or none ran."""
        handler = self._handlers[kind].get(name)
        return UNHANDLED if handler is None else handler(self, *event)

    # ------------------------------------------------------------- primitives
    # These are the library routines transition bodies call (after the code
    # generator prefixes them with ``self.``).

    def state_change(self, new_state: str) -> None:
        """Move the FSM to *new_state* (a control action)."""
        if new_state not in self.STATES and new_state != "init":
            raise AgentError(f"{self.PROTOCOL}: unknown state {new_state!r}")
        old = self._state
        self._state = new_state
        self.trace("state_change", f"{old}->{new_state}")

    # -- neighbor management ---------------------------------------------------
    def neighbor_add(self, neighbor_set: NeighborSet, address: int,
                     key: Optional[int] = None, **fields: Any):
        if key is None and self.ADDRESSING == "hash":
            key = self.key_space.hash(address)
        entry = neighbor_set.add(address, key=key, **fields)
        if self._trace_high:   # "neighbor" records at TraceLevel.HIGH
            self.trace("neighbor", f"add {address} to {neighbor_set.name}")
        return entry

    def neighbor_remove(self, neighbor_set: NeighborSet, address: int):
        entry = neighbor_set.remove(address)
        if self._trace_high:
            self.trace("neighbor", f"remove {address} from {neighbor_set.name}")
        return entry

    def neighbor_clear(self, neighbor_set: NeighborSet) -> None:
        neighbor_set.clear()

    @staticmethod
    def neighbor_size(neighbor_set: NeighborSet) -> int:
        return neighbor_set.size()

    @staticmethod
    def neighbor_query(neighbor_set: NeighborSet, address: int) -> bool:
        return neighbor_set.query(address)

    @staticmethod
    def neighbor_entry(neighbor_set: NeighborSet, address: int):
        return neighbor_set.entry(address)

    @staticmethod
    def neighbor_random(neighbor_set: NeighborSet):
        return neighbor_set.random()

    @staticmethod
    def neighbor_addresses(neighbor_set: NeighborSet) -> list[int]:
        return neighbor_set.addresses()

    def _on_fail_detect_change(self, neighbor_set: NeighborSet, action: str,
                               address: int) -> None:
        if action == "add":
            self.node.failure_detector.monitor(address)
        elif action == "remove":
            self.node.failure_detector.unmonitor(address)

    # -- timers ------------------------------------------------------------------
    def timer_sched(self, timer, delay: Optional[float] = None) -> None:
        timer = self._resolve_timer(timer)
        timer.schedule(delay)
        if self._trace_high:   # "timer" records at TraceLevel.HIGH
            self.trace("timer", f"sched {timer.name}")

    def timer_resched(self, timer, delay: Optional[float] = None) -> None:
        timer = self._resolve_timer(timer)
        timer.reschedule(delay)
        if self._trace_high:
            self.trace("timer", f"resched {timer.name}")

    def timer_cancel(self, timer) -> None:
        timer = self._resolve_timer(timer)
        timer.cancel()
        if self._trace_high:
            self.trace("timer", f"cancel {timer.name}")

    def _resolve_timer(self, timer):
        if isinstance(timer, str):
            return self._timers.get(timer)
        return timer

    # -- message transmission ----------------------------------------------------
    def send_msg(self, message: Message, dest: int, *, priority: int = -1,
                 tag: Optional[str] = None) -> None:
        """Transmit one of this protocol's messages directly to *dest*.

        Only meaningful on the lowest layer of a stack (the layer that owns
        transports); layered protocols use :meth:`route_msg` /
        :meth:`routeip_msg` instead.
        """
        dest = int(dest)
        message.priority, message.source = priority, self.my_addr
        message.protocol = self.PROTOCOL
        declared = self._transport_names
        if priority is not None and priority >= 0 and declared:
            transport_name = declared[min(priority, len(declared) - 1)]
        else:
            transport_name = message.type.transport or self._default_transport
        size = message.size
        if tag is None and message.payload is not None:
            tag = getattr(message.payload, "tag", None)
        if self._trace_med:   # "message_send" records at TraceLevel.MED
            self.trace("message_send", message.type.name, dest=dest, size=size)
        host = self.node.transport_host
        host.send(transport_name or host.DEFAULT_TRANSPORT, dest, message, size,
                  tag)

    def build_message(self, name: str, *, payload: Any = None,
                      payload_size: int = 0, **fields: Any) -> Message:
        """A message named at run time (a rare path: no bundled spec takes
        it); an undeclared name or field is a MessageError."""
        return Message(MessageCatalog(list(self.MESSAGE_TYPES)).get(name),
                       fields, payload, payload_size)

    def wrap_msg(self, message: Message) -> Message:
        """*message* as this protocol's routed message: carried by a lower
        layer, with this node as its source."""
        message.source, message.protocol, message.routed = \
            self.my_addr, self.PROTOCOL, True
        return message

    def route_msg(self, message: Message, dest_key: int, *,
                  priority: int = -1) -> None:
        """Send one of this protocol's messages via the lower layer's ``route``."""
        self.downcall_route(dest_key, self.wrap_msg(message), message.size,
                            priority)

    def routeip_msg(self, message: Message, dest_ip: int, *,
                    priority: int = -1) -> None:
        """Send one of this protocol's messages via the lower layer's ``routeIP``."""
        self.downcall_routeip(dest_ip, self.wrap_msg(message), message.size,
                              priority)

    # -- downcalls (into the layer below) -----------------------------------------
    def _require_lower(self) -> "Agent":
        if self.lower is None:
            raise AgentError(
                f"{self.PROTOCOL}: downcall attempted but there is no lower layer"
            )
        return self.lower

    def downcall_route(self, dest_key: int, payload: Any, size: int,
                       priority: int = -1) -> Any:
        return self._require_lower().api_call("route", int(dest_key), payload,
                                              size, priority)

    def downcall_routeip(self, dest_ip: int, payload: Any, size: int,
                         priority: int = -1) -> Any:
        return self._require_lower().api_call("routeIP", int(dest_ip), payload,
                                              size, priority)

    def downcall_multicast(self, group: int, payload: Any, size: int,
                           priority: int = -1) -> Any:
        return self._require_lower().api_call("multicast", int(group), payload,
                                              size, priority)

    def downcall_anycast(self, group: int, payload: Any, size: int,
                         priority: int = -1) -> Any:
        return self._require_lower().api_call("anycast", int(group), payload,
                                              size, priority)

    def downcall_collect(self, group: int, payload: Any, size: int,
                         priority: int = -1) -> Any:
        return self._require_lower().api_call("collect", int(group), payload,
                                              size, priority)

    def downcall_create_group(self, group: int) -> Any:
        return self._require_lower().api_call("create_group", int(group))

    def downcall_join(self, group: int) -> Any:
        return self._require_lower().api_call("join", int(group))

    def downcall_leave(self, group: int) -> Any:
        return self._require_lower().api_call("leave", int(group))

    def downcall_ext(self, op: Any, arg: Any = None) -> Any:
        return self._require_lower().api_call("downcall_ext", op, arg)

    # -- upcalls (into the layer above / the application) --------------------------
    def upcall_deliver(self, payload: Any, size: int, mtype: Any = None,
                       source: Optional[int] = None) -> None:
        """Deliver *payload* to the layer above (or the application)."""
        if self.upper is not None:
            self.upper.handle_lower_deliver(payload, size, mtype,
                                            source=source)
        elif self.node.handlers.deliver is not None:
            self.node.handlers.deliver(payload, size, mtype)

    def upcall_forward(self, payload: Any, size: int, mtype: Any,
                       next_hop: Optional[int], next_hop_key: Optional[int],
                       source: Optional[int] = None) -> tuple[bool, Optional[int]]:
        """Offer a routing decision to the layer above.

        Returns ``(allow, next_hop_override)``: ``allow`` is False if the upper
        layer quashed the message; ``next_hop_override`` is a replacement
        next-hop key if the upper layer changed the destination.
        """
        if self.upper is not None:
            return self.upper.handle_lower_forward(payload, size, mtype,
                                                   next_hop, next_hop_key,
                                                   source=source)
        forward = self.node.handlers.forward
        if forward is None:
            return (True, None)
        return (bool(forward(payload, size, mtype, next_hop, next_hop_key)),
                None)

    def upcall_notify(self, neighbors: Any, nbr_type: int = 0) -> None:
        """Tell the layer above that a neighbor set changed."""
        if isinstance(neighbors, NeighborSet):
            addresses = neighbors.addresses()
        elif neighbors is None:
            addresses = []
        else:
            addresses = [int(address) for address in neighbors]
        if self.upper is not None:
            if self.upper._handle("api", "notify", addresses,
                                  nbr_type) is UNHANDLED:
                self.upper.upcall_notify(addresses, nbr_type)
        elif self.node.handlers.notify is not None:
            self.node.handlers.notify(nbr_type, addresses)

    def upcall_ext(self, op: Any, arg: Any = None) -> Any:
        """Extensible upcall to the layer above (the generic handler)."""
        if self.upper is not None:
            result = self.upper._handle("api", "upcall_ext", op, arg)
            return self.upper.upcall_ext(op, arg) if result is UNHANDLED \
                else result
        upcall = self.node.handlers.upcall
        return None if upcall is None else upcall(op, arg)

    # -- handling upcalls arriving from the layer below ----------------------------
    # A routed message stays one instance all the way; each agent it reaches
    # gets its own copy, as if it had come off its own wire.
    def handle_lower_deliver(self, payload: Any, size: int, mtype: Any,
                             source: Optional[int] = None) -> None:
        if isinstance(payload, Message) and payload.protocol == self.PROTOCOL:
            self.receive_message(payload.copy(source))
            return
        # Not ours: keep passing it up the stack.
        self.upcall_deliver(payload, size, mtype, source=source)

    def handle_lower_forward(self, payload: Any, size: int, mtype: Any,
                             next_hop: Optional[int], next_hop_key: Optional[int],
                             source: Optional[int] = None) -> tuple[bool, Optional[int]]:
        if isinstance(payload, Message) and payload.protocol == self.PROTOCOL:
            message = payload.copy(source)
            outcome = self._handle("forward", message.name, message, next_hop,
                                   next_hop_key)
            if outcome is UNHANDLED:
                return (True, None)
            quash, key = outcome
            return (not quash, key if key != next_hop_key else None)
        return self.upcall_forward(payload, size, mtype, next_hop, next_hop_key,
                                   source=source)

    # -- lifecycle -------------------------------------------------------------------
    def shutdown(self) -> None:
        """Silence this agent for a fail-stop crash.

        Cancels every pending timer so a crashed node schedules nothing
        further; the node recreates agents from scratch on recovery, so no
        state is preserved here (that is the point of fail-stop).
        """
        self._timers.cancel_all()

    # -- error / failure ------------------------------------------------------------
    def peer_failed(self, address: int) -> None:
        """Invoked by the node's failure detector when a monitored peer dies."""
        for neighbor_set in self._fail_detect_sets:
            if neighbor_set.query(address):
                if self._handle("api", "error", int(address)) is UNHANDLED:
                    # Default repair: silently drop the dead peer.
                    neighbor_set.remove(address)

    # -- tracing ---------------------------------------------------------------------
    def trace(self, category: str, detail: str, **data: Any) -> None:
        self.node.tracer.record(self.TRACE, self.simulator.now, self.my_addr,
                                self.PROTOCOL, category, detail, **data)

    def debug(self, detail: str, **data: Any) -> None:
        if self._trace_high:   # "debug" records at TraceLevel.HIGH
            self.trace("debug", detail, **data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.PROTOCOL} @{self.my_addr} state={self._state}>"
