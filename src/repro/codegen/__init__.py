"""MACEDON code generation: mac specifications → Python agent classes."""

from .generator import (
    CodeGenerator,
    class_name_for,
    generate_source,
    module_name_for,
    normalize_action_code,
    rewrite_action_code,
)
from .primitives import AGENT_PRIMITIVES
from .registry import (
    ProtocolRegistry,
    compile_mac,
    compile_source,
    default_specs_dir,
    get_registry,
)

__all__ = [
    "CodeGenerator",
    "class_name_for",
    "generate_source",
    "module_name_for",
    "normalize_action_code",
    "rewrite_action_code",
    "AGENT_PRIMITIVES",
    "ProtocolRegistry",
    "compile_mac",
    "compile_source",
    "default_specs_dir",
    "get_registry",
]
