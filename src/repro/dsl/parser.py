"""Recursive-descent parser for mac files (the Figure-4 grammar)."""

from __future__ import annotations

from typing import Optional, Union

from .ast import (
    ConstantDecl,
    FieldDecl,
    MessageDecl,
    NeighborTypeDecl,
    ProtocolSpec,
    RoutineDecl,
    StateVarDecl,
    TransitionDecl,
    TransportDecl,
)
from .errors import MacSyntaxError
from .lexer import EOF, IDENT, NUMBER, PUNCT, STRING, Lexer, Token

#: Scalar state-variable / field types understood by the runtime size model.
SCALAR_TYPES = {"int", "long", "double", "float", "bool", "key", "ipaddr", "string"}
#: Container state-variable kinds for protocol bookkeeping.
CONTAINER_KINDS = {"map", "list", "set"}
#: Transport service classes.
TRANSPORT_KINDS = {"TCP", "UDP", "SWP"}
#: Event keywords that terminate a transition's state expression.
EVENT_KEYWORDS = {"API", "api", "timer", "recv", "forward"}
#: Section keywords.
SECTION_KEYWORDS = {
    "constants", "states", "neighbor_types", "transports", "messages",
    "state_variables", "auxiliary", "transitions", "routines",
}
TRACE_LEVELS = {"off", "low", "med", "high"}


def parse_mac(text: str, filename: Optional[str] = None) -> ProtocolSpec:
    """Parse mac source *text* into a :class:`ProtocolSpec`."""
    return _Parser(text, filename).parse()


class _Parser:
    def __init__(self, text: str, filename: Optional[str]) -> None:
        self.lexer = Lexer(text, filename)
        self.filename = filename
        self.text = text

    def _error(self, message: str, line: Optional[int] = None) -> MacSyntaxError:
        return MacSyntaxError(message, filename=self.filename,
                              line=line if line is not None else self.lexer.line)

    # --------------------------------------------------------------- top level
    def parse(self) -> ProtocolSpec:
        spec = self._parse_headers()
        spec.source_file = self.filename
        spec.source_text = self.text
        while not self.lexer.at_eof():
            token = self.lexer.next()
            if token.kind != IDENT:
                raise self._error(f"expected a section keyword, found {token.value!r}",
                                  token.line)
            section = token.value
            if section == "constants":
                self._parse_constants(spec)
            elif section == "states":
                self._parse_states(spec)
            elif section == "neighbor_types":
                self._parse_neighbor_types(spec)
            elif section == "transports":
                self._parse_transports(spec)
            elif section == "messages":
                self._parse_messages(spec)
            elif section in ("state_variables",):
                self._parse_state_vars(spec)
            elif section == "auxiliary":
                # The grammar spells this section "auxiliary data { ... }".
                self.lexer.expect_ident("data")
                self._parse_state_vars(spec)
            elif section == "transitions":
                self._parse_transitions(spec)
            elif section == "routines":
                self._parse_routines(spec)
            else:
                raise self._error(f"unknown section {section!r}", token.line)
        return spec

    # ----------------------------------------------------------------- headers
    def _parse_headers(self) -> ProtocolSpec:
        self.lexer.expect_ident("protocol")
        name = self.lexer.expect_ident().value
        base: Optional[str] = None
        if self.lexer.accept_ident("uses"):
            base = self.lexer.expect_ident().value
        spec = ProtocolSpec(name=name, base=base)

        # Optional addressing and tracing headers, in either order.
        while True:
            token = self.lexer.peek()
            if token.kind != IDENT:
                break
            if token.value == "addressing":
                self.lexer.next()
                mode = self.lexer.expect_ident().value
                if mode not in ("ip", "hash"):
                    raise self._error(f"addressing must be 'ip' or 'hash', got {mode!r}",
                                      token.line)
                spec.addressing = mode
            elif token.value.startswith("trace_") or token.value == "trace":
                self.lexer.next()
                if token.value == "trace" or token.value == "trace_":
                    level = self.lexer.expect_ident().value
                else:
                    level = token.value[len("trace_"):]
                if level not in TRACE_LEVELS:
                    raise self._error(f"unknown trace level {level!r}", token.line)
                spec.trace = level
            else:
                break
        return spec

    # ---------------------------------------------------------------- sections
    def _parse_constants(self, spec: ProtocolSpec) -> None:
        self.lexer.expect_punct("{")
        while not self.lexer.accept_punct("}"):
            name_token = self.lexer.expect_ident()
            self.lexer.expect_punct("=")
            value = self._parse_literal()
            self.lexer.expect_punct(";")
            spec.constants.append(ConstantDecl(name=name_token.value, value=value,
                                               line=name_token.line))

    def _parse_literal(self) -> Union[int, float, str]:
        token = self.lexer.next()
        if token.kind == NUMBER:
            return _to_number(token.value)
        if token.kind == STRING:
            return token.value
        if token.kind == IDENT and token.value in ("true", "false"):
            return token.value == "true"
        raise self._error(f"expected a literal value, found {token.value!r}", token.line)

    def _parse_states(self, spec: ProtocolSpec) -> None:
        self.lexer.expect_punct("{")
        while not self.lexer.accept_punct("}"):
            token = self.lexer.expect_ident()
            self.lexer.expect_punct(";")
            spec.states.append(token.value)

    def _parse_neighbor_types(self, spec: ProtocolSpec) -> None:
        self.lexer.expect_punct("{")
        while not self.lexer.accept_punct("}"):
            name_token = self.lexer.expect_ident()
            size_token = self.lexer.next()
            if size_token.kind == NUMBER:
                max_size: Union[int, str] = int(float(size_token.value))
            elif size_token.kind == IDENT:
                max_size = size_token.value
            else:
                raise self._error("expected neighbor set maximum size", size_token.line)
            fields = self._parse_field_block()
            spec.neighbor_types.append(NeighborTypeDecl(
                name=name_token.value, max_size=max_size, fields=tuple(fields),
                line=name_token.line))

    def _parse_field_block(self) -> list[FieldDecl]:
        self.lexer.expect_punct("{")
        fields: list[FieldDecl] = []
        while not self.lexer.accept_punct("}"):
            type_token = self.lexer.expect_ident()
            is_list = False
            name_token = self.lexer.next()
            if name_token.kind == IDENT and name_token.value == "list":
                is_list = True
                name_token = self.lexer.next()
            if name_token.kind != IDENT:
                raise self._error("expected field name", name_token.line)
            self.lexer.expect_punct(";")
            fields.append(FieldDecl(type_name=type_token.value, name=name_token.value,
                                    is_list=is_list, line=type_token.line))
        return fields

    def _parse_transports(self, spec: ProtocolSpec) -> None:
        self.lexer.expect_punct("{")
        while not self.lexer.accept_punct("}"):
            kind_token = self.lexer.expect_ident()
            if kind_token.value.upper() not in TRANSPORT_KINDS:
                raise self._error(
                    f"transport kind must be one of {sorted(TRANSPORT_KINDS)}, "
                    f"got {kind_token.value!r}", kind_token.line)
            name_token = self.lexer.expect_ident()
            self.lexer.expect_punct(";")
            spec.transports.append(TransportDecl(kind=kind_token.value.upper(),
                                                 name=name_token.value,
                                                 line=kind_token.line))

    def _parse_messages(self, spec: ProtocolSpec) -> None:
        self.lexer.expect_punct("{")
        while not self.lexer.accept_punct("}"):
            first = self.lexer.expect_ident()
            transport: Optional[str] = None
            if self.lexer.peek().kind == IDENT:
                transport = first.value
                name_token = self.lexer.expect_ident()
            else:
                name_token = first
            fields = self._parse_field_block()
            spec.messages.append(MessageDecl(name=name_token.value,
                                             fields=tuple(fields),
                                             transport=transport,
                                             line=first.line))

    def _parse_state_vars(self, spec: ProtocolSpec) -> None:
        self.lexer.expect_punct("{")
        while not self.lexer.accept_punct("}"):
            line = self.lexer.peek().line
            fail_detect = self.lexer.accept_ident("fail_detect")
            type_token = self.lexer.expect_ident()
            type_name = type_token.value

            if type_name == "timer":
                name = self.lexer.expect_ident().value
                period: Optional[float] = None
                if self.lexer.peek().kind == NUMBER:
                    period = float(self.lexer.next().value)
                self.lexer.expect_punct(";")
                spec.state_vars.append(StateVarDecl(kind="timer", name=name,
                                                    period=period, line=line))
                continue

            if type_name in CONTAINER_KINDS:
                name = self.lexer.expect_ident().value
                self.lexer.expect_punct(";")
                spec.state_vars.append(StateVarDecl(kind=type_name, name=name, line=line))
                continue

            name = self.lexer.expect_ident().value
            default = None
            if self.lexer.accept_punct("="):
                default = self._parse_literal()
            self.lexer.expect_punct(";")
            if type_name in SCALAR_TYPES:
                spec.state_vars.append(StateVarDecl(kind="var", name=name,
                                                    type_name=type_name,
                                                    default=default, line=line))
            else:
                # A neighbor-set instance of a declared neighbor type.
                spec.state_vars.append(StateVarDecl(kind="neighbor_set", name=name,
                                                    type_name=type_name,
                                                    fail_detect=fail_detect, line=line))
                continue
            if fail_detect:
                raise self._error("fail_detect only applies to neighbor sets", line)

    def _parse_transitions(self, spec: ProtocolSpec) -> None:
        self.lexer.expect_punct("{")
        while True:
            if self.lexer.accept_punct("}"):
                break
            if self.lexer.at_eof():
                raise self._error("unterminated transitions block")
            spec.transitions.append(self._parse_one_transition())

    def _parse_one_transition(self) -> TransitionDecl:
        line = self.lexer.peek().line
        state_expr = self._parse_state_expression()
        keyword_token = self.lexer.expect_ident()
        keyword = keyword_token.value
        if keyword in ("API", "api"):
            kind = "api"
            name = self.lexer.expect_ident().value
        elif keyword == "timer":
            kind = "timer"
            name = self.lexer.expect_ident().value
        elif keyword in ("recv", "forward"):
            kind = keyword
            name = self.lexer.expect_ident().value
        else:
            raise self._error(
                f"expected API, timer, recv, or forward; found {keyword!r}",
                keyword_token.line)
        locking = "write"
        if self.lexer.accept_punct("["):
            locking = self._parse_transition_options()
        code, code_line = self.lexer.read_raw_block()
        return TransitionDecl(state_expr=state_expr, kind=kind, name=name,
                              code=code, locking=locking, line=line,
                              code_line=code_line)

    def _parse_state_expression(self) -> str:
        parts: list[str] = []
        while True:
            token = self.lexer.peek()
            if token.kind == IDENT and token.value in EVENT_KEYWORDS:
                break
            if token.kind == EOF:
                raise self._error("unterminated transition declaration")
            if token.kind == IDENT:
                parts.append(token.value)
            elif token.kind == PUNCT and token.value in "()|!":
                parts.append(token.value)
            else:
                raise self._error(
                    f"unexpected {token.value!r} in transition state expression",
                    token.line)
            self.lexer.next()
        if not parts:
            raise self._error("transition is missing its state expression")
        return _join_state_expr(parts)

    def _parse_transition_options(self) -> str:
        locking = "write"
        while not self.lexer.accept_punct("]"):
            option_token = self.lexer.expect_ident()
            if option_token.value == "locking":
                mode = self.lexer.expect_ident().value
                if mode not in ("read", "write"):
                    raise self._error(f"locking must be 'read' or 'write', got {mode!r}",
                                      option_token.line)
                locking = mode
            else:
                raise self._error(f"unknown transition option {option_token.value!r}",
                                  option_token.line)
            self.lexer.accept_punct(";")
        return locking

    def _parse_routines(self, spec: ProtocolSpec) -> None:
        line = self.lexer.peek().line
        code, code_line = self.lexer.read_raw_block()
        spec.routines.append(RoutineDecl(code=code, line=line,
                                         code_line=code_line))


def _join_state_expr(parts: list[str]) -> str:
    """Reassemble state-expression tokens into canonical text.

    Tokens were separated by the lexer; state names that were adjacent in the
    source (e.g. ``joining | init``) must be re-joined with the original
    operators, which are all single characters and unambiguous.
    """
    return "".join(parts)


def _to_number(text: str) -> Union[int, float]:
    value = float(text)
    if value.is_integer() and "." not in text and "e" not in text.lower():
        return int(value)
    return value
