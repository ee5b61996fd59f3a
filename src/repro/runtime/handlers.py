"""The handler emitter: one straight-line dispatcher per ``(kind, event)``.

The generator knows statically which states a transition is scoped to and
which lock class it takes, so dispatch is *emitted*, not interpreted.  The
code generator is the emitter's only caller: it writes the output into the
generated class, next to the transition methods (``static`` names the
transitions that take the message, or nothing for a timer, instead of a
``TransitionContext``), and ``Agent.__init_subclass__`` only binds and checks
what it finds there.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from .stateexpr import parse_state_expr

#: Event kinds, and what each kind's handler is called with besides ``self``.
HANDLER_PARAMS = {"api": "ctx", "timer": "", "recv": "message", "forward": "ctx"}


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


def emit_handlers(transitions: Iterable, states: Sequence[str],
                  static: Collection[str]) -> str:
    """Python source of one handler method per ``(kind, name)`` bucket.

    A handler tests the bucket's state expressions in declaration order and,
    for the first that holds, writes the MED ``"transition"`` trace record,
    enters the lock scope its ``locking`` names and calls the transition
    method through ``self`` (so a subclass overriding it is honoured); it
    returns whether a transition ran.
    """
    handlers: dict[tuple[str, str], list[str]] = {}
    for t in transitions:
        param = HANDLER_PARAMS[t.kind]
        lines = handlers.setdefault((t.kind, t.name), [
            f"def {handler_name(t.kind, t.name)}(self{param and ', ' + param}):",
            "    state = self._state"])
        if t.method in static or param == "ctx":
            event = param
        elif t.kind == "recv":
            event = "self._message_ctx(message)"
        else:
            event = f"TransitionContext(timer_name={t.name!r})"
        lines += [
            f"    if {_guard(t.state_expr, states)}:",
            "        if self._trace_med:",
            f"            self.trace('transition', {t.kind + ':' + t.name!r}, "
            f"state=state, locking={t.locking!r})",
            f"        with self._{t.locking}_scope:",
            f"            self.{t.method}({event})",
            "        return True"]
    return "\n\n".join("\n".join(lines + ["    return False"])
                       for lines in handlers.values())
