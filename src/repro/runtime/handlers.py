"""The handler emitter and the event-parameter table.

The generator knows statically which states a transition is scoped to, so
dispatch is *emitted*, not interpreted.  The code generator is the emitter's
only caller: it writes the output into the generated class, next to the
transition methods, and ``Agent.__init_subclass__`` only binds and checks
what it finds there.

Every event hands its transition plain parameters, named by one table:
:data:`API_PARAMS` for an ``api`` event (the arguments of the paper's API
call), :data:`HANDLER_PARAMS` for the other kinds.  A handler takes exactly
its event's parameters and passes them on unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .stateexpr import parse_state_expr

_DATA = ("payload", "payload_size", "priority")
_GROUP_DATA = ("group", *_DATA)

#: API transition name -> the values its call passes, in call order.
API_PARAMS: dict[str, tuple[str, ...]] = {
    "init": ("bootstrap",),
    "route": ("dest_key", *_DATA),
    "routeIP": ("dest", *_DATA),
    "multicast": _GROUP_DATA,
    "anycast": _GROUP_DATA,
    "collect": _GROUP_DATA,
    "create_group": ("group",),
    "join": ("group",),
    "leave": ("group",),
    "notify": ("neighbors", "nbr_type"),
    "error": ("error_addr",),
    "upcall_ext": ("op", "arg"),
    "downcall_ext": ("op", "arg"),
}

#: API transition names accepted by the grammar.
API_NAMES = tuple(API_PARAMS)

#: Event kind -> the parameters of its handler and transitions besides
#: ``self`` (an ``api`` event's come from :data:`API_PARAMS`).
HANDLER_PARAMS: dict[str, tuple[str, ...]] = {
    "api": (), "timer": (), "recv": ("__msg",),
    "forward": ("__msg", "next_hop", "next_hop_key")}

#: What a handler returns when none of its transitions' states holds.
UNHANDLED = object()


def event_params(kind: str, event: str) -> tuple[str, ...]:
    """The parameters a *kind* event named *event* passes its transition."""
    return API_PARAMS[event] if kind == "api" else HANDLER_PARAMS[kind]


def handler_name(kind: str, event: str) -> str:
    return f"_handle_{kind}_{event}"


def _guard(state_expr: str, states: Sequence[str]) -> str:
    """*state_expr* as a Python test of the local ``state``."""
    expr = parse_state_expr(state_expr, states)
    if expr.match_any:
        return "True"       # compiled away: the block below it is unconditional
    # Declaration order, not set order: the emitted text must not depend on
    # the process's hash seed.
    names = [name for name in ("init", *states) if name in expr.states]
    if len(names) == 1:
        return f"state {'!=' if expr.negated else '=='} {names[0]!r}"
    return f"state {'not in' if expr.negated else 'in'} {tuple(names)!r}"


def emit_handlers(transitions: Iterable, states: Sequence[str]) -> str:
    """Python source of one handler method per ``(kind, name)`` bucket.

    A handler tests the bucket's state expressions in declaration order and,
    for the first that holds, writes the MED ``"transition"`` trace record
    (with the transition's ``locking``) and calls the transition method
    through ``self`` (so a subclass overriding it is honoured) with the
    event's parameters; it returns what the transition returned, or
    :data:`UNHANDLED` if no state expression held.
    """
    handlers: dict[tuple[str, str], list[str]] = {}
    for t in transitions:
        params = ", ".join(event_params(t.kind, t.name))
        lines = handlers.setdefault((t.kind, t.name), [
            f"def {handler_name(t.kind, t.name)}(self{params and ', ' + params}):",
            "    state = self._state"])
        lines += [
            f"    if {_guard(t.state_expr, states)}:",
            "        if self._trace_med:",
            f"            self.trace('transition', {t.kind + ':' + t.name!r}, "
            f"state=state, locking={t.locking!r})",
            f"        return self.{t.method}({params})"]
    return "\n\n".join("\n".join(lines + ["    return UNHANDLED"])
                       for lines in handlers.values())
