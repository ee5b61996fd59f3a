"""The MACEDON code generator: mac AST → Python agent source.

The paper's toolchain translates a specification into C++ that links against
the shared runtime libraries; here the target is a Python module defining one
subclass of :class:`repro.runtime.agent.Agent`.  The output is genuine source
text — it can be written to disk, inspected, diffed, and imported — rather
than an interpreter over the AST, preserving the paper's "generate code, then
run it everywhere" workflow.

Transition bodies are Python (the embedded action language), written against
the MACEDON primitive library.  :func:`rewrite_action_code` retargets bare
primitive and state-variable names onto ``self``, a send onto its message's
class (``send_msg("x", d, f=1)`` → ``self.send_msg(XMsg(f=1), d)``) and
``field("f")`` onto ``__msg.f``, splicing at the parser's own positions.

What the specification fixes is resolved here, not per event: dispatch is one
emitted handler per ``(kind, event)`` (:mod:`repro.runtime.handlers`); a
transition takes its event's parameters (``API_PARAMS`` / ``HANDLER_PARAMS``)
and returns the names its body writes back (``result``; ``quash`` and
``next_hop_key``); a ``recv``/``forward`` body gets the message's names as
locals; each ``messages { }`` row is a slotted class.  An event-context
name the event does not bind, a ``return`` in a body, literal message and
field names that the spec does not declare, and a ``locking read``
transition that could write node state are each a :class:`CodegenError`.
"""

from __future__ import annotations

import ast
import functools
import re
import textwrap
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Optional

from ..dsl.ast import ProtocolSpec, RoutineDecl, TransitionDecl
from ..dsl.errors import CodegenError
from ..runtime.agent import StateVarSpec, TransitionSpec
from ..runtime.handlers import (API_PARAMS, HANDLER_PARAMS, emit_handlers,
                                event_params)
from ..runtime.messages import (FieldSpec, MessageCatalog, MessageError,
                                MessageType, emit_message_class,
                                message_class_name)
from ..runtime.neighbors import NeighborFieldSpec, NeighborType
from .primitives import AGENT_PRIMITIVES, READ_ONLY_CALLS, WRITE_PRIMITIVES

#: Names a ``recv``/``forward`` body may read about its message, each with the
#: statement binding it, as a local, from ``__msg`` (``field`` only when a name
#: it is given is computed: a literal one is read as ``__msg.<name>``).
_RECV_BINDINGS = {
    "msg": "msg = __msg",
    "source": "source = __msg.source",
    "source_key": ("source_key = None if __msg.source is None "
                   "else self.key_space.hash(__msg.source)"),
    "payload": "payload = __msg.payload",
    "payload_size": "payload_size = __msg.payload_size",
    "field": "field = __msg.field",
}
#: Names a body writes back, per kind: its transition returns them.
_WRITE_BACK = {"api": ("result",), "forward": ("quash", "next_hop_key")}
#: Every event-context name; a body may name only its own event's.
_CONTEXT_NAMES = frozenset().union(
    _RECV_BINDINGS, HANDLER_PARAMS["forward"], *API_PARAMS.values(),
    *_WRITE_BACK.values())
#: Primitives whose first argument names one of this protocol's messages and
#: whose keywords, beyond these options, are that message's fields.
_SEND_PRIMITIVES = {"send_msg", "route_msg", "routeip_msg", "wrap_msg"}
_SEND_OPTIONS = {"priority", "payload", "payload_size", "tag"}
_CALL_OPTIONS = {"priority", "tag"}   # the send keeps these; not the message

_ROUTINE_DEF_RE = re.compile(r"^\s*def\s+([A-Za-z_][A-Za-z_0-9]*)\s*\(", re.MULTILINE)


# --------------------------------------------------------------------- helpers
def class_name_for(protocol_name: str, base: Optional[str] = None) -> str:
    """Python class name for a protocol, e.g. ``split_stream`` →
    ``SplitStreamAgent``; re-layered over ``chord``,
    ``SplitStreamAgentOverChord``."""
    parts = re.split(r"[_\-]+", protocol_name)
    name = "".join(part.capitalize() for part in parts if part) + "Agent"
    return f"{name}Over{base.capitalize()}" if base else name


def _nodes(body: str, context: str) -> list[ast.AST]:
    """Every AST node of an action-code block; an f-string is listed but not
    entered (a string is never rewritten)."""
    try:
        todo, nodes = [ast.parse(body)], []
    except SyntaxError as exc:
        raise CodegenError(f"cannot parse action code ({context}): {exc}") from exc
    while todo:
        node = todo.pop()
        nodes.append(node)
        if not isinstance(node, ast.JoinedStr):
            todo.extend(ast.iter_child_nodes(node))
    return nodes


def _agent_name(node: ast.AST, bare: frozenset[str]) -> Optional[str]:
    """The agent attribute *node* names: ``self.<name>``, or a name in *bare*
    (the names a transition body is rewritten onto); else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    if isinstance(node, ast.Name) and node.id in bare:
        return node.id
    return None


def _in_order(nodes: Iterable[ast.AST]) -> list[ast.AST]:
    """*nodes* in source order."""
    return sorted(nodes, key=lambda node: (getattr(node, "lineno", 0),
                                           getattr(node, "col_offset", 0)))


def rewrite_action_code(code: str, self_names: Iterable[str],
                        *, context: str = "") -> str:
    """Rewrite a transition/routine body onto runtime objects.

    ``self_names`` are rewritten to ``self.<name>`` (and a send onto its
    message's class); every other name (event parameters, locals, builtins)
    is left alone, and so are attributes (``x.delay``) and keyword arguments
    (``f(response=1)``), which are not names to the parser.
    """
    body = normalize_action_code(code)
    return _retarget(body, _nodes(body, context), frozenset(self_names))


def _literal(node: Optional[ast.AST]) -> Optional[str]:
    """The string *node* is a literal of, else None."""
    return node.value if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else None


def _literal_field(node: ast.AST) -> bool:
    """Whether *node* is ``field("<literal>")``."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "field" and len(node.args) == 1 \
        and not node.keywords and _literal(node.args[0]) is not None


def _retarget(body: str, nodes: Iterable[ast.AST], bare: frozenset[str],
              recv: bool = False) -> str:
    """*body* with each name in *bare* on ``self``, each send primitive
    constructing its message — a literal name's class, else (a computed
    name, ``**`` fields) ``self.build_message`` — and, in a *recv* body,
    each literal ``field("x")`` read as ``__msg.x``."""
    text = body.encode("utf-8")
    starts = [0, *accumulate(map(len, text.splitlines(keepends=True)))]

    def span(node: ast.AST) -> tuple[int, int]:   # byte offsets, as parsed
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    edits = []   # (begin, end, node): that span of the text is rewritten
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in bare:   # an insertion
            edits.append((span(node)[0], span(node)[0], node))
        elif recv and _literal_field(node) or isinstance(node, ast.Call) \
                and node.args and _agent_name(node.func, bare) in _SEND_PRIMITIVES:
            edits.append((*span(node), node))
    edits.sort(key=lambda edit: (edit[0], -edit[1]))   # outermost first

    def render(begin: int, end: int) -> str:
        out, at = [], begin
        for start, stop, node in edits:
            if start >= at and stop <= end:
                out += (text[at:start].decode("utf-8"), rewrite(node))
                at = stop
        return "".join(out) + text[at:end].decode("utf-8")

    def rewrite(node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return "self."
        if _literal_field(node):
            return f"__msg.{node.args[0].value}"
        first, *rest = node.args
        moved = [kw for kw in node.keywords if kw.arg not in _CALL_OPTIONS]
        fields = [render(*span(kw)) for kw in moved]
        message = f"{message_class_name(first.value)}({', '.join(fields)})" \
            if _literal(first) and all(kw.arg for kw in moved) else \
            f"self.build_message({', '.join([render(*span(first)), *fields])})"
        kept = rest + [kw for kw in node.keywords if kw.arg in _CALL_OPTIONS]
        return (f"{render(*span(node.func))}("
                f"{', '.join([message, *(render(*span(arg)) for arg in kept)])})")

    return render(0, len(text))


def normalize_action_code(code: str) -> str:
    """Dedent and trim an embedded code block; empty blocks become ``pass``."""
    stripped = code.strip("\n")
    if not stripped.strip():
        return "pass"
    return textwrap.dedent(stripped).strip("\n")


def _indent(code: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line if line.strip() else "" for line in code.splitlines())


def routine_method_names(spec: ProtocolSpec) -> list[str]:
    """Names of helper methods defined in the spec's routines blocks."""
    names: list[str] = []
    for routine in spec.routines:
        names.extend(_ROUTINE_DEF_RE.findall(routine.code))
    return names


# ---------------------------------------------------------------- generation
class CodeGenerator:
    """Generates a Python module from a validated :class:`ProtocolSpec`,
    re-layered over *base* (its ``uses`` header overridden) if one is given."""

    def __init__(self, spec: ProtocolSpec, base: Optional[str] = None) -> None:
        self.spec = spec
        self.base = spec.base if base is None else base
        self.class_name = class_name_for(spec.name, base)
        self.constants = spec.constant_map()
        self.catalog = MessageCatalog([
            MessageType(message.name, tuple(
                FieldSpec(field.name, field.type_name, field.is_list)
                for field in message.fields), message.transport)
            for message in spec.messages])
        self.transitions = [
            TransitionSpec(kind=decl.kind, name=decl.name,
                           state_expr=decl.state_expr,
                           method=self._transition_method_name(index, decl),
                           locking=decl.locking)
            for index, decl in enumerate(spec.transitions)]

    # ------------------------------------------------------------------ naming
    def _transition_method_name(self, index: int, transition: TransitionDecl) -> str:
        safe = re.sub(r"[^A-Za-z_0-9]", "_", transition.name)
        return f"_t{index:02d}_{transition.kind}_{safe}"

    def _self_names(self) -> frozenset[str]:
        names = set(AGENT_PRIMITIVES)
        names.update(self.constants)
        names.update(self.spec.state_var_names())
        names.update(routine_method_names(self.spec))
        return frozenset(names)

    # ---------------------------------------------------------------- sections
    def generate(self) -> str:
        """Return the complete Python source of the generated module."""
        spec, class_name = self.spec, self.class_name
        parts: list[str] = []
        parts.append(self._header())
        parts.append(self._imports())
        parts.append("\n\n".join(
            emit_message_class(message_type, repr(message_type))
            for message_type in self.catalog))
        parts.append(f"\nclass {class_name}(Agent):")
        parts.append(f'    """MACEDON agent generated from {spec.name}.mac."""\n')
        parts.append(self._class_attributes())
        parts.append(self._routines())
        parts.append(self._transition_methods())
        parts.append(f'\n\nAGENT_CLASS = {class_name}\n')
        source = "\n".join(part for part in parts if part)
        return source

    def _header(self) -> str:
        origin = self.spec.source_file or f"{self.spec.name}.mac"
        return (
            f'"""Generated by the MACEDON code generator from {origin}.\n\n'
            f"Do not edit by hand: regenerate from the specification instead.\n"
            f'"""\n'
        )

    def _imports(self) -> str:
        return (
            "from repro.runtime.agent import (\n"
            "    Agent, StateVarSpec, TransitionSpec, UNHANDLED, NBR_TYPE_PARENT,\n"
            "    NBR_TYPE_CHILDREN, NBR_TYPE_SIBLINGS, NBR_TYPE_PEERS)\n"
            "from repro.runtime.keys import KeySpace\n"
            "from repro.runtime.messages import (\n"
            "    FieldSpec, Message, MessageType)\n"
            "from repro.runtime.neighbors import NeighborFieldSpec, NeighborType\n"
            "from repro.runtime.tracing import TraceLevel\n"
            "\n"
        )

    def _class_attributes(self) -> str:
        spec = self.spec
        lines: list[str] = []
        lines.append(f"    PROTOCOL = {spec.name!r}")
        lines.append(f"    BASE_PROTOCOL = {self.base!r}")
        lines.append(f"    ADDRESSING = {spec.addressing!r}")
        lines.append(f"    TRACE = TraceLevel.{spec.trace.upper()}")
        lines.append(f"    CONSTANTS = {self.constants!r}")
        lines.append(f"    STATES = {tuple(spec.states)!r}")
        lines.append(self._neighbor_types_attr())
        lines.append(self._transports_attr())
        lines.append(self._declarations("MESSAGE_TYPES", (
            f"{message_class_name(message_type.name)}.type"
            for message_type in self.catalog), str))
        lines.append(self._declarations("STATE_VARS", (
            StateVarSpec(var.name, var.kind, var.type_name, var.default,
                         var.fail_detect, var.period)
            for var in spec.state_vars)))
        lines.append(self._declarations("TRANSITIONS", self.transitions))
        lines.append("    KEY_SPACE = KeySpace()")
        lines.append("")
        return "\n".join(lines)

    def _neighbor_types_attr(self) -> str:
        if not self.spec.neighbor_types:
            return "    NEIGHBOR_TYPES = {}"
        entries = []
        for decl in self.spec.neighbor_types:
            max_size = decl.max_size
            if isinstance(max_size, str):
                max_size = self.constants.get(max_size)
                if not isinstance(max_size, int):
                    raise CodegenError(
                        f"neighbor type {decl.name!r}: max size constant does not "
                        f"resolve to an integer", filename=self.spec.source_file,
                        line=decl.line)
            fields = tuple(NeighborFieldSpec(
                field.name, "list" if field.is_list else field.type_name)
                for field in decl.fields)
            entries.append(f"        {decl.name!r}: "
                           f"{NeighborType(decl.name, max_size, fields)!r},")
        return "    NEIGHBOR_TYPES = {\n" + "\n".join(entries) + "\n    }"

    def _transports_attr(self) -> str:
        declared = tuple((decl.kind, decl.name) for decl in self.spec.transports)
        return f"    TRANSPORT_DECLS = {declared!r}"

    @staticmethod
    def _declarations(name: str, items: Iterable, text=repr) -> str:
        """``NAME = (...)``: the runtime's own declaration objects, one per
        line, each written as its (evaluable) repr."""
        entries = "".join(f"        {text(item)},\n" for item in items)
        return f"    {name} = (\n{entries}    )" if entries else f"    {name} = ()"

    @functools.cached_property
    def _routine_blocks(self) -> list[tuple[RoutineDecl, str, list[ast.AST]]]:
        """Each routines block with its normalised code and that code's nodes."""
        blocks = []
        for routine in self.spec.routines:
            code = normalize_action_code(routine.code)
            context = f"{self.spec.name}.mac line {routine.line}: routines"
            blocks.append((routine, code, _nodes(code, context)))
        return blocks

    @functools.cached_property
    def _routine_bodies(self) -> dict[str, tuple[RoutineDecl, list[ast.AST]]]:
        """Routine method name -> its routines block and the nodes of its def."""
        bodies = {}
        for routine, _, nodes in self._routine_blocks:
            tops = [node for node in nodes
                    if isinstance(node, ast.FunctionDef) and node.col_offset == 0]
            by_line = sorted(tops, key=lambda top: top.lineno)
            starts = [top.lineno for top in by_line]
            owned = {id(top): [] for top in tops}
            for node in nodes:      # top-level defs own disjoint line ranges
                line = getattr(node, "lineno", 0)
                at = bisect_right(starts, line) - 1
                if at >= 0 and line <= by_line[at].end_lineno:
                    owned[id(by_line[at])].append(node)
            for top in tops:
                bodies[top.name] = (routine, owned[id(top)])
        return bodies

    def _routines(self) -> str:
        if not self.spec.routines:
            return ""
        blocks = []
        for routine, code, nodes in self._routine_blocks:
            self._check_names(routine, nodes)
            blocks.append(_indent(_retarget(code, nodes, frozenset()), 4))
        return "\n    # ---- user routines ----\n" + "\n\n".join(blocks) + "\n"

    def _check_names(self, decl, nodes: list[ast.AST],
                     message: Optional[str] = None) -> bool:
        """The runtime's message- and field-name checks, at compile time.

        A send primitive (bare, or on ``self`` as routines write it) with a
        literal message name must name a declared message and pass only its
        fields; ``field("x")`` in a ``recv``/``forward`` transition of
        *message* must name one of its fields.  Computed names stay a runtime
        check.  Returns whether every ``field`` use was such a literal.
        """
        unchecked = 0
        for node in nodes:
            unchecked += isinstance(node, ast.Name) and node.id == "field"
            called = _agent_name(node.func, _SEND_PRIMITIVES) \
                if isinstance(node, ast.Call) and node.args else None
            if _literal_field(node):
                unchecked -= 1
                called, owner, names = "field", message, (node.args[0].value,)
            elif called in _SEND_PRIMITIVES:
                owner, names = _literal(node.args[0]), {
                    kw.arg for kw in node.keywords if kw.arg} - _SEND_OPTIONS
            else:
                continue
            try:
                if owner is not None:
                    self.catalog.get(owner).validate_fields(names)
            except MessageError as exc:
                raise self._error(decl, node, f"{called}: {exc}") from exc
        return not unchecked

    def _error(self, decl, node: ast.AST, text: str) -> CodegenError:
        """*text* as a CodegenError at *node*'s line of the ``.mac`` file."""
        # decl.code starts right behind the "{" on decl.code_line.
        blank = len(decl.code) - len(decl.code.lstrip("\n"))
        return CodegenError(text, filename=self.spec.source_file,
                            line=decl.code_line + blank + node.lineno - 1)

    def _transition_methods(self) -> str:
        self_names = self._self_names()
        blocks = []
        for decl, transition in zip(self.spec.transitions, self.transitions):
            context = (f"{self.spec.name}.mac line {decl.line}: "
                       f"{decl.state_expr} {decl.kind} {decl.name}")
            body = normalize_action_code(decl.code)
            nodes = _nodes(body, context)
            literal_fields = self._check_names(
                decl, nodes,
                decl.name if decl.kind in ("recv", "forward") else None)
            params = event_params(decl.kind, decl.name)
            named = self._event_names(decl, nodes, self_names, params)
            if decl.locking == "read":
                self._check_read_only(decl, nodes, self_names)
            recv = "__msg" in params
            prologue = [_RECV_BINDINGS[name] for name in sorted(named)
                        if name in _RECV_BINDINGS and recv
                        and not (name == "field" and literal_fields)]
            epilogue = []
            if decl.kind == "forward":
                prologue.append("quash = False")
                epilogue.append("return quash, next_hop_key")
            elif "result" in named:
                prologue.append("result = None")
                epilogue.append("return result")
            docstring = (f'"""{decl.state_expr} {decl.kind} '
                         f'{decl.name}  [locking {decl.locking}] '
                         f'(line {decl.line})."""')
            blocks.append(
                f"    def {transition.method}(self"
                f"{''.join(', ' + param for param in params)}):\n"
                f"        {docstring}\n"
                + "".join(f"        {line}\n" for line in prologue)
                + _indent(_retarget(body, nodes, self_names, recv), 8)
                + "".join(f"\n        {line}" for line in epilogue))
        if self.transitions:
            blocks.append("    # ---- event handlers (repro.runtime.handlers) ----\n"
                          + _indent(emit_handlers(self.transitions,
                                                  self.spec.states), 4))
        return "\n\n".join(blocks)

    def _event_names(self, decl, nodes: list[ast.AST], self_names: frozenset[str],
                     params: tuple[str, ...]) -> set[str]:
        """The event-context names *decl*'s body uses, each checked to be one
        its event binds or writes back; a ``return`` (which would skip the
        write-back; helpers that return belong in ``routines``) is refused."""
        allowed = {*params, *_WRITE_BACK.get(decl.kind, ())}
        if "__msg" in params:
            allowed.update(_RECV_BINDINGS)
        named = set()
        for node in _in_order(nodes):
            if isinstance(node, ast.Return):
                raise self._error(decl, node, f"{decl.kind} {decl.name}: a "
                                  f"transition body must not return")
            if isinstance(node, ast.Name) and node.id in _CONTEXT_NAMES \
                    and node.id not in self_names:
                if node.id not in allowed:
                    raise self._error(decl, node, (
                        f"{decl.kind} {decl.name}: {node.id!r} is not bound "
                        f"by this event (it binds "
                        f"{', '.join(sorted(allowed)) or 'nothing'})"))
                named.add(node.id)
        return named

    def _check_read_only(self, decl, nodes: list[ast.AST],
                         self_names: frozenset[str]) -> None:
        """Refuse a ``locking read`` transition that could write node state.

        Its body, and every routine it reaches (by naming it, or ``self.<it>``
        in a routine), is checked node by node (:meth:`_write_in`); the
        error is at the ``.mac`` line of the first offending node, in the
        transition or in the routine.
        """
        routines = self._routine_bodies
        seen: set[str] = set()

        def check(owner, body: list[ast.AST], bare: frozenset[str],
                  via: tuple[str, ...]) -> None:
            strings = [inner for node in body if isinstance(node, ast.JoinedStr)
                       for inner in ast.walk(node)]
            for node in _in_order([*body, *strings]):
                refusal = self._write_in(node, bare)
                if refusal:
                    inside = f" (in routine {' → '.join(via)})" if via else ""
                    raise self._error(owner, node, f"{decl.kind} {decl.name} "
                                      f"[locking read]: {refusal}{inside}")
                name = _agent_name(node, bare)
                if name in routines and name not in seen:
                    seen.add(name)
                    check(*routines[name], frozenset(), via + (name,))

        check(decl, nodes, self_names, ())

    def _write_in(self, node: ast.AST, bare: frozenset[str]) -> Optional[str]:
        """What *node* does that a read-only body may not, or None.

        Refused: a store to an agent name (a state variable above all), a
        store or delete through any subscript or attribute (a local can
        alias state), a call to a write primitive, and any call that is not
        to another primitive, a routine, ``field`` (in a transition body,
        where *bare* holds the names it is rewritten onto), or a name in
        ``READ_ONLY_CALLS`` (any receiver): what is not classified is not
        guessed at.
        """
        if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)) \
                and not isinstance(node.ctx, ast.Load):
            name = _agent_name(node, bare)
            if name is None and isinstance(node, ast.Name):
                return None         # a local
            target = ast.unparse(node) if name is None else (
                f"state variable {name!r}"
                if name in self.spec.state_var_names() else repr(name))
            verb = "assigns" if isinstance(node.ctx, ast.Store) else "deletes"
            return f"{verb} {target}"
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        called = _agent_name(func, bare)
        if called in WRITE_PRIMITIVES:
            return f"calls write primitive {called}"
        if called is None and isinstance(func, ast.Name):
            if func.id in READ_ONLY_CALLS or (func.id == "field" and bare):
                return None
        elif called is None and isinstance(func, ast.Attribute):
            if func.attr in READ_ONLY_CALLS:
                return None
            return f"calls {ast.unparse(func)}(), which is not a read-only method"
        elif called in self._routine_bodies or called in AGENT_PRIMITIVES:
            return None
        return (f"calls {ast.unparse(func)}(), which the read-only check "
                f"cannot classify")


def generate_source(spec: ProtocolSpec, base: Optional[str] = None) -> str:
    """Python source for a validated spec, re-layered over *base* if given."""
    return CodeGenerator(spec, base).generate()
