"""FSM state expressions.

Transitions in a mac file are scoped by a state expression, e.g.::

    any API route [locking read;] { ... }
    probing timer keep_probing { ... }
    !(joining|init) recv join { ... }

An expression is ``any``, a single state name, an alternation ``a|b|c``
(optionally parenthesised), or a negation ``!(...)`` / ``!name`` of the above.
This module parses such expressions, when the specification is compiled (the
validator checks them, :mod:`repro.runtime.handlers` turns each into the
``if`` test of a generated handler) — never per event.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence


class StateExprError(ValueError):
    """Raised for malformed state expressions or unknown state names."""


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAMES = rf"{_NAME}(?:\s*\|\s*{_NAME})*"
#: ``[!] a|b|c`` with the alternation optionally inside one pair of parentheses.
_EXPR_RE = re.compile(rf"(!?)\s*(?:\(\s*({_NAMES})\s*\)|({_NAMES}))$")


@dataclass(frozen=True)
class StateExpr:
    """A parsed state expression: a set of states, possibly negated."""

    source: str
    states: FrozenSet[str]
    negated: bool = False
    match_any: bool = False

    def matches(self, state: str) -> bool:
        """Whether the expression is satisfied by the given FSM state."""
        if self.match_any:
            return True
        result = state in self.states
        return not result if self.negated else result

    def __str__(self) -> str:
        return self.source


def parse_state_expr(text: str,
                     known_states: Optional[Sequence[str]] = None) -> StateExpr:
    """Parse a state expression, optionally validating names against *known_states*.

    ``init`` is always an allowed state name (it is implicit in every
    protocol), as is ``any``.
    """
    source = text.strip()
    match = _EXPR_RE.match(source)
    if match is None:
        raise StateExprError(
            f"malformed state expression {text!r}: expected 'any', a state "
            f"name or 'a|b|c', optionally parenthesised and/or negated with '!'")
    negated = bool(match.group(1))
    names = re.findall(_NAME, match.group(2) or match.group(3))

    if names == ["any"]:
        if negated:
            raise StateExprError("'!any' is not a useful state expression")
        return StateExpr(source=source, states=frozenset(), negated=False, match_any=True)

    if known_states is not None:
        allowed = set(known_states) | {"init"}
        unknown = [name for name in names if name not in allowed]
        if unknown:
            raise StateExprError(
                f"unknown state(s) {unknown} in expression {text!r} "
                f"(declared: {sorted(allowed)})"
            )

    return StateExpr(source=source, states=frozenset(names), negated=negated)
