"""MACEDON code generation: mac specifications → Python agent classes."""

from .._lazy import lazy_front

#: Public name -> the submodule it is imported from on first use.
_EXPORTS = {
    "CodeGenerator": ".generator",
    "class_name_for": ".generator",
    "generate_source": ".generator",
    "normalize_action_code": ".generator",
    "rewrite_action_code": ".generator",
    "AGENT_PRIMITIVES": ".primitives",
    "ProtocolRegistry": ".registry",
    "compile_mac": ".registry",
    "compile_source": ".registry",
    "default_specs_dir": ".registry",
    "get_registry": ".registry",
    "module_name_for": ".registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_front(globals(), _EXPORTS)
