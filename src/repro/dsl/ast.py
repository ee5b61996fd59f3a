"""Abstract syntax tree for MACEDON protocol specifications.

These dataclasses mirror the sections of the Figure-4 grammar: headers,
STATE AND DATA (constants, states, neighbor types, transports, messages,
state variables), TRANSITIONS, and ROUTINES.  The parser produces a
:class:`ProtocolSpec`; the validator checks cross-references; the code
generator turns it into a Python agent class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union


@dataclass(frozen=True)
class ConstantDecl:
    """``NAME = value;`` inside the constants block."""

    name: str
    value: Union[int, float, str]
    line: int = 0


@dataclass(frozen=True)
class FieldDecl:
    """A typed field of a message or neighbor type: ``int response;``."""

    type_name: str
    name: str
    is_list: bool = False
    line: int = 0


@dataclass(frozen=True)
class NeighborTypeDecl:
    """``oparent 1 { double delay; }`` inside neighbor_types."""

    name: str
    max_size: Union[int, str]       # integer literal or constant name
    fields: tuple[FieldDecl, ...] = ()
    line: int = 0


@dataclass(frozen=True)
class TransportDecl:
    """``TCP HIGH;`` inside transports."""

    kind: str                        # TCP | UDP | SWP
    name: str
    line: int = 0


@dataclass(frozen=True)
class MessageDecl:
    """``HIGHEST join_reply { int response; }`` inside messages."""

    name: str
    fields: tuple[FieldDecl, ...] = ()
    transport: Optional[str] = None
    line: int = 0


@dataclass(frozen=True)
class StateVarDecl:
    """One declaration inside state_variables / auxiliary data.

    ``kind`` is one of ``var``, ``neighbor_set``, ``timer``, ``map``,
    ``list``, ``set`` (matching :class:`repro.runtime.agent.StateVarSpec`).
    """

    kind: str
    name: str
    type_name: str = ""
    default: Any = None
    fail_detect: bool = False
    period: Optional[float] = None
    line: int = 0


@dataclass(frozen=True)
class TransitionDecl:
    """One transition: state expression, event, options, and its action code."""

    state_expr: str
    kind: str                        # api | timer | recv | forward
    name: str
    code: str
    locking: str = "write"
    line: int = 0
    code_line: int = 0               # line of the "{" that opens ``code``


@dataclass(frozen=True)
class RoutineDecl:
    """A block of user-supplied helper methods (raw Python, emitted verbatim)."""

    code: str
    line: int = 0
    code_line: int = 0


@dataclass
class ProtocolSpec:
    """A parsed mac file."""

    name: str
    base: Optional[str] = None       # the "uses" header
    addressing: str = "ip"           # "ip" or "hash"
    trace: str = "off"               # off | low | med | high
    constants: list[ConstantDecl] = field(default_factory=list)
    states: list[str] = field(default_factory=list)
    neighbor_types: list[NeighborTypeDecl] = field(default_factory=list)
    transports: list[TransportDecl] = field(default_factory=list)
    messages: list[MessageDecl] = field(default_factory=list)
    state_vars: list[StateVarDecl] = field(default_factory=list)
    transitions: list[TransitionDecl] = field(default_factory=list)
    routines: list[RoutineDecl] = field(default_factory=list)
    source_file: Optional[str] = None
    source_text: str = ""

    # ------------------------------------------------------------------ lookups
    def constant_map(self) -> dict[str, Any]:
        return {constant.name: constant.value for constant in self.constants}

    def neighbor_type(self, name: str) -> Optional[NeighborTypeDecl]:
        for decl in self.neighbor_types:
            if decl.name == name:
                return decl
        return None

    def message(self, name: str) -> Optional[MessageDecl]:
        for decl in self.messages:
            if decl.name == name:
                return decl
        return None

    def transport_names(self) -> list[str]:
        return [decl.name for decl in self.transports]

    def timer_names(self) -> list[str]:
        return [decl.name for decl in self.state_vars if decl.kind == "timer"]

    def state_var_names(self) -> list[str]:
        return [decl.name for decl in self.state_vars]

    def is_layered(self) -> bool:
        return self.base is not None

    def lines_of_code(self) -> int:
        """Non-blank, non-comment lines in the original specification.

        This is the quantity Figure 7 of the paper reports for each protocol.
        """
        count = 0
        for line in self.source_text.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("//") or stripped.startswith("#"):
                continue
            count += 1
        return count
