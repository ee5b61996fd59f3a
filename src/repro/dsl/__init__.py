"""The MACEDON domain-specific language front end (Figure-4 grammar)."""

from .._lazy import lazy_front

#: Public name -> the submodule it is imported from on first use.
_EXPORTS = {
    "ConstantDecl": ".ast",
    "FieldDecl": ".ast",
    "MessageDecl": ".ast",
    "NeighborTypeDecl": ".ast",
    "ProtocolSpec": ".ast",
    "RoutineDecl": ".ast",
    "StateVarDecl": ".ast",
    "TransitionDecl": ".ast",
    "TransportDecl": ".ast",
    "CodegenError": ".errors",
    "MacError": ".errors",
    "MacSyntaxError": ".errors",
    "MacValidationError": ".errors",
    "Lexer": ".lexer",
    "Token": ".lexer",
    "parse_mac": ".parser",
    "validate": ".validator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_front(globals(), _EXPORTS)
