"""Semantic validation of parsed mac specifications.

The parser only checks the grammar; this pass checks cross-references the
code generator and runtime rely on:

* unique and well-formed names (states, neighbor types, transports, messages,
  state variables, timers);
* message transport bindings refer to declared transports (for lowest-layer
  protocols);
* neighbor-set state variables refer to declared neighbor types, and neighbor
  maximum sizes that name constants resolve to positive integers;
* transition state expressions parse and refer to declared states;
* transition events refer to declared messages/timers/API names;
* a layered protocol (``uses`` header) does not declare transports.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.handlers import API_NAMES
from ..runtime.stateexpr import StateExprError, parse_state_expr
from .ast import ProtocolSpec
from .errors import MacValidationError
from .parser import CONTAINER_KINDS, SCALAR_TYPES

_FIELD_TYPES = SCALAR_TYPES | {"neighbor"}
_PYTHON_KEYWORDS = {
    "from", "import", "def", "class", "return", "if", "else", "elif", "for",
    "while", "pass", "break", "continue", "lambda", "global", "nonlocal",
    "True", "False", "None", "and", "or", "not", "in", "is", "try", "except",
    "finally", "raise", "with", "as", "yield", "assert", "del",
}


def validate(spec: ProtocolSpec) -> None:
    """Raise :class:`MacValidationError` if *spec* is inconsistent."""
    _check_names(spec)
    _check_constants(spec)
    _check_neighbor_types(spec)
    _check_transports_and_messages(spec)
    _check_state_vars(spec)
    _check_transitions(spec)


def _fail(spec: ProtocolSpec, message: str, line: Optional[int] = None) -> None:
    raise MacValidationError(message, filename=spec.source_file, line=line)


def _check_identifier(spec: ProtocolSpec, name: str, what: str,
                      line: Optional[int] = None) -> None:
    if not name.isidentifier():
        _fail(spec, f"{what} {name!r} is not a valid identifier", line)
    if name in _PYTHON_KEYWORDS:
        _fail(spec, f"{what} {name!r} collides with a Python keyword", line)


def _check_names(spec: ProtocolSpec) -> None:
    _check_identifier(spec, spec.name, "protocol name")
    if spec.base is not None:
        _check_identifier(spec, spec.base, "base protocol name")
        if spec.base == spec.name:
            _fail(spec, f"protocol {spec.name!r} cannot be layered on itself")
    seen_states = set()
    for state in spec.states:
        _check_identifier(spec, state, "state")
        if state == "init":
            _fail(spec, "the 'init' state is implicit and must not be redeclared")
        if state == "any":
            _fail(spec, "'any' is reserved in state expressions")
        if state in seen_states:
            _fail(spec, f"state {state!r} declared twice")
        seen_states.add(state)


def _check_constants(spec: ProtocolSpec) -> None:
    seen = set()
    for constant in spec.constants:
        _check_identifier(spec, constant.name, "constant", constant.line)
        if constant.name in seen:
            _fail(spec, f"constant {constant.name!r} declared twice", constant.line)
        seen.add(constant.name)


def _check_neighbor_types(spec: ProtocolSpec) -> None:
    constants = spec.constant_map()
    seen = set()
    for decl in spec.neighbor_types:
        _check_identifier(spec, decl.name, "neighbor type", decl.line)
        if decl.name in seen:
            _fail(spec, f"neighbor type {decl.name!r} declared twice", decl.line)
        seen.add(decl.name)
        max_size = decl.max_size
        if isinstance(max_size, str):
            if max_size not in constants:
                _fail(spec, f"neighbor type {decl.name!r} max size references "
                            f"unknown constant {max_size!r}", decl.line)
            max_size = constants[max_size]
        if not isinstance(max_size, int) or max_size <= 0:
            _fail(spec, f"neighbor type {decl.name!r} max size must be a positive "
                        f"integer, got {max_size!r}", decl.line)
        field_names = set()
        for field in decl.fields:
            _check_identifier(spec, field.name, "neighbor field", field.line)
            if field.name in field_names:
                _fail(spec, f"neighbor type {decl.name!r} field {field.name!r} "
                            f"declared twice", field.line)
            field_names.add(field.name)
            if field.type_name not in _FIELD_TYPES and field.type_name not in ("list",):
                _fail(spec, f"neighbor field {field.name!r} has unknown type "
                            f"{field.type_name!r}", field.line)


def _check_transports_and_messages(spec: ProtocolSpec) -> None:
    transport_names = set()
    for decl in spec.transports:
        _check_identifier(spec, decl.name, "transport", decl.line)
        if decl.name in transport_names:
            _fail(spec, f"transport {decl.name!r} declared twice", decl.line)
        transport_names.add(decl.name)
    if spec.is_layered() and spec.transports:
        _fail(spec, f"protocol {spec.name!r} is layered over {spec.base!r} and must "
                    f"not declare transports (only the lowest layer owns them)")

    message_names = set()
    for message in spec.messages:
        _check_identifier(spec, message.name, "message", message.line)
        if message.name in message_names:
            _fail(spec, f"message {message.name!r} declared twice", message.line)
        message_names.add(message.name)
        if message.transport is not None and not spec.is_layered():
            if message.transport not in transport_names:
                _fail(spec, f"message {message.name!r} is bound to undeclared "
                            f"transport {message.transport!r}", message.line)
        field_names = set()
        for field in message.fields:
            _check_identifier(spec, field.name, "message field", field.line)
            if field.name in field_names:
                _fail(spec, f"message {message.name!r} field {field.name!r} "
                            f"declared twice", field.line)
            field_names.add(field.name)
            if field.type_name not in _FIELD_TYPES:
                _fail(spec, f"message field {field.name!r} has unknown type "
                            f"{field.type_name!r}", field.line)


def _check_state_vars(spec: ProtocolSpec) -> None:
    neighbor_type_names = {decl.name for decl in spec.neighbor_types}
    seen = set()
    reserved = {"state", "node", "lower", "upper", "my_addr", "my_key",
                "simulator", "key_space", "bootstrap_addr", "bootstrap_key"}
    for var in spec.state_vars:
        _check_identifier(spec, var.name, "state variable", var.line)
        if var.name in seen:
            _fail(spec, f"state variable {var.name!r} declared twice", var.line)
        if var.name in reserved:
            _fail(spec, f"state variable {var.name!r} collides with a runtime "
                        f"attribute", var.line)
        seen.add(var.name)
        if var.kind == "neighbor_set" and var.type_name not in neighbor_type_names:
            _fail(spec, f"state variable {var.name!r} uses undeclared neighbor "
                        f"type {var.type_name!r}", var.line)
        if var.kind == "var" and var.type_name not in SCALAR_TYPES:
            _fail(spec, f"state variable {var.name!r} has unknown type "
                        f"{var.type_name!r}", var.line)
        if var.kind == "timer" and var.period is not None and var.period <= 0:
            _fail(spec, f"timer {var.name!r} default period must be positive", var.line)
        if var.fail_detect and var.kind != "neighbor_set":
            _fail(spec, f"fail_detect only applies to neighbor sets ({var.name!r})",
                  var.line)


def _check_transitions(spec: ProtocolSpec) -> None:
    message_names = {message.name for message in spec.messages}
    timer_names = set(spec.timer_names())
    for transition in spec.transitions:
        try:
            parse_state_expr(transition.state_expr, spec.states)
        except StateExprError as exc:
            _fail(spec, f"bad state expression {transition.state_expr!r}: {exc}",
                  transition.line)
        if transition.kind == "api":
            if transition.name not in API_NAMES:
                _fail(spec, f"unknown API transition {transition.name!r} "
                            f"(allowed: {', '.join(API_NAMES)})", transition.line)
        elif transition.kind == "timer":
            if transition.name not in timer_names:
                _fail(spec, f"timer transition for undeclared timer "
                            f"{transition.name!r}", transition.line)
        elif transition.kind in ("recv", "forward"):
            if transition.name not in message_names:
                _fail(spec, f"{transition.kind} transition for undeclared message "
                            f"{transition.name!r}", transition.line)
        if transition.locking not in ("read", "write"):
            _fail(spec, f"unknown locking mode {transition.locking!r}", transition.line)
        if not transition.code.strip():
            _fail(spec, f"transition {transition.kind} {transition.name!r} has an "
                        f"empty body (use 'pass')", transition.line)
