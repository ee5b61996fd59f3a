"""The name table used when translating transition bodies.

A transition body in a mac file is written against the MACEDON action library
— bare calls such as ``neighbor_add(papa, source)`` or ``state_change(joined)``
— plus the protocol's own state variables and constants, and a small set of
event-context names (``source``, ``msg``, ``dest_key``, …).  The code
generator rewrites the **agent primitives** below and the **declared state**
to ``self.<name>`` (methods/attributes of :class:`repro.runtime.agent.Agent`
or of the generated subclass).

Event-context names are not rewritten: they are the transition's parameters,
or locals bound from its message (``repro.runtime.handlers.API_PARAMS`` and
``HANDLER_PARAMS`` name them).  Anything else — locals, builtins, helper
routines the user prefixed with ``self.`` explicitly — is left untouched.

A ``locking read`` transition must be read-only, and the generator proves it
(``CodeGenerator._check_read_only``): it may call no name in
:data:`WRITE_PRIMITIVES`, and besides the other primitives, its routines and
``field`` only the names in :data:`READ_ONLY_CALLS`.
"""

from __future__ import annotations

#: Names rewritten to ``self.<name>``: the MACEDON action library plus
#: runtime attributes that transitions commonly read.
AGENT_PRIMITIVES: frozenset[str] = frozenset({
    # FSM / identity
    "state_change", "state", "my_addr", "my_key", "is_bootstrap",
    "bootstrap_addr", "bootstrap_key", "key_space", "now", "random",
    "random_int", "hash_of",
    # neighbor management
    "neighbor_add", "neighbor_remove", "neighbor_clear", "neighbor_size",
    "neighbor_query", "neighbor_entry", "neighbor_random", "neighbor_addresses",
    # timer subsystem
    "timer_sched", "timer_resched", "timer_cancel",
    # message transmission
    "send_msg", "route_msg", "routeip_msg", "wrap_msg",
    # downcalls into the layer below
    "downcall_route", "downcall_routeip", "downcall_multicast",
    "downcall_anycast", "downcall_collect", "downcall_create_group",
    "downcall_join", "downcall_leave", "downcall_ext",
    # upcalls into the layer above / application
    "upcall_deliver", "upcall_forward", "upcall_notify", "upcall_ext",
    # tracing / plumbing
    "trace", "debug", "node", "simulator", "lower", "upper",
})

#: The primitives that change node state (the FSM state, a neighbor set, a
#: timer): a ``locking read`` body, and any routine it reaches, may not call
#: them.
WRITE_PRIMITIVES: frozenset[str] = frozenset({
    "state_change", "neighbor_add", "neighbor_remove", "neighbor_clear",
    "timer_sched", "timer_resched", "timer_cancel",
})

#: Everything else a ``locking read`` body may call: methods that only read
#: their receiver (dict, list, str, ``NeighborSet``, ``KeySpace``), whatever
#: the receiver is, and builtins that mutate none of their arguments.
READ_ONLY_CALLS: frozenset[str] = frozenset({
    # methods
    "get", "items", "keys", "values", "copy", "count", "index", "join",
    "format", "startswith", "endswith", "entries", "addresses", "query",
    "entry", "size", "first", "between", "hash", "distance", "digits",
    "shared_prefix", "wrap", "successor_distance_order",
    # builtins
    "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "float",
    "frozenset", "getattr", "hasattr", "int", "isinstance", "len", "list",
    "max", "min", "next", "range", "repr", "reversed", "round", "set",
    "sorted", "str", "sum", "tuple", "zip",
})
