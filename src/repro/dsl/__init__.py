"""The MACEDON domain-specific language front end (Figure-4 grammar)."""

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
from .errors import CodegenError, MacError, MacSyntaxError, MacValidationError
from .lexer import Lexer, Token
from .parser import parse_mac
from .validator import validate

__all__ = [
    "ConstantDecl",
    "FieldDecl",
    "MessageDecl",
    "NeighborTypeDecl",
    "ProtocolSpec",
    "RoutineDecl",
    "StateVarDecl",
    "TransitionDecl",
    "TransportDecl",
    "CodegenError",
    "MacError",
    "MacSyntaxError",
    "MacValidationError",
    "Lexer",
    "Token",
    "parse_mac",
    "validate",
]
