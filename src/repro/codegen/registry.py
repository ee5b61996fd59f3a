"""Compiling and caching generated protocol agents.

Two roads lead from a specification to an
:class:`~repro.runtime.agent.Agent` subclass, both ending in
:func:`repro.codegen.generator.generate_source` → :func:`compile_source`:

* a bundled spec, by name: :meth:`ProtocolRegistry.load_spec` (parse,
  validate, cache) → :meth:`ProtocolRegistry.generated_source` →
  :func:`compile_source`, the class cached per ``(name, base)``;
* ``.mac`` text: :func:`compile_mac` (parse → validate → generate →
  compile).

The registry also resolves the protocol *stacks* a
:class:`~repro.eval.scenario.Stack` names: following the ``uses`` headers
down to the lowest layer, or re-layered over another base ("switch Scribe
from Pastry to Chord by changing a single line"), lowest layer first.  The
:mod:`repro.baselines` agents are one-layer stack names.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Type

from ..dsl.ast import ProtocolSpec
from ..dsl.errors import CodegenError, MacError
from ..dsl.parser import parse_mac
from ..dsl.validator import validate
from ..runtime.agent import Agent
from .generator import generate_source, module_name_for


def default_specs_dir() -> Path:
    """Directory holding the bundled ``.mac`` specifications."""
    return Path(__file__).resolve().parent.parent / "protocols" / "specs"


def compile_source(source: str, module_name: str) -> Type[Agent]:
    """Execute generated *source* as a module named *module_name* and return
    its agent class.  Nothing is registered: the class is the only handle."""
    filename = f"<macedon-generated:{module_name}>"
    namespace = {"__name__": module_name, "__file__": filename}
    try:
        code = compile(source, filename, "exec")
        exec(code, namespace)  # noqa: S102 - executing our own generated code
    except SyntaxError as exc:
        raise CodegenError(f"generated code does not compile: {exc}") from exc
    agent_class = namespace.get("AGENT_CLASS")
    if agent_class is None or not issubclass(agent_class, Agent):
        raise CodegenError(f"generated module {module_name!r} did not define AGENT_CLASS")
    return agent_class


def compile_mac(text: str, filename: Optional[str] = None) -> Type[Agent]:
    """One-shot: mac source text → parsed, validated, generated, compiled
    agent class."""
    spec = parse_mac(text, filename)
    validate(spec)
    return compile_source(generate_source(spec), module_name_for(spec.name))


class ProtocolRegistry:
    """Loads, generates, and caches the bundled protocol suite."""

    def __init__(self, specs_dir: Optional[Path] = None) -> None:
        self.specs_dir = Path(specs_dir) if specs_dir is not None else default_specs_dir()
        self._spec_cache: dict[str, ProtocolSpec] = {}
        self._class_cache: dict[tuple[str, Optional[str]], Type[Agent]] = {}

    # ------------------------------------------------------------------- specs
    def available(self) -> list[str]:
        """Names of all bundled specifications."""
        return sorted(path.stem for path in self.specs_dir.glob("*.mac"))

    def spec_path(self, name: str) -> Path:
        path = self.specs_dir / f"{name}.mac"
        if not path.exists():
            raise MacError(self._missing_spec_message(name))
        return path

    def _missing_spec_message(self, name: str) -> str:
        """A diagnosis for a missing spec: where we looked, the closest
        stack name (bundled spec or baseline), and how to register a new
        one."""
        from difflib import get_close_matches

        from ..baselines import BASELINES

        lines = [f"no specification named {name!r}",
                 f"specs directory: {self.specs_dir}"]
        available = self.available()
        close = get_close_matches(name, available + sorted(BASELINES), n=3)
        if close:
            lines.append(f"did you mean: {', '.join(close)}?")
        if not self.specs_dir.is_dir():
            lines.append("the specs directory does not exist")
        elif available:
            lines.append(f"available specs: {', '.join(available)}")
        else:
            lines.append("the specs directory contains no .mac files")
        lines.append(f"baseline stacks: {', '.join(sorted(BASELINES))}")
        lines.append(
            f"to register a new protocol, save its specification as "
            f"{self.specs_dir / (name + '.mac')} (or construct "
            f"ProtocolRegistry(specs_dir=...) pointing at your own directory)"
        )
        return "; ".join(lines)

    def load_spec(self, name: str) -> ProtocolSpec:
        """Parse and validate the named bundled specification (cached)."""
        cached = self._spec_cache.get(name)
        if cached is None:
            path = self.spec_path(name)
            cached = parse_mac(path.read_text(encoding="utf-8"), filename=str(path))
            validate(cached)
            self._spec_cache[name] = cached
        return cached

    # ----------------------------------------------------------------- classes
    def load_protocol(self, name: str, *, base: Optional[str] = None) -> Type[Agent]:
        """Agent class for the named protocol, optionally re-layered over *base*.

        Passing ``base`` overrides the specification's ``uses`` header — the
        paper's single-line change that moves Scribe from Pastry to Chord.
        Each variant is its own class (``ScribeAgentOverChord``), cached
        under its own key.
        """
        cache_key = (name, base)
        agent_class = self._class_cache.get(cache_key)
        if agent_class is None:
            agent_class = compile_source(self.generated_source(name, base=base),
                                         module_name_for(name, base))
            self._class_cache[cache_key] = agent_class
        return agent_class

    def load_stack(self, name: str,
                   base: Optional[str] = None) -> list[Type[Agent]]:
        """The layering chain of *name*, lowest layer first.  ``base``
        replaces the chain's lowest layer (``load_stack("splitstream",
        "chord")`` is SplitStream over Scribe over Chord); naming the
        declared base keeps the bundled classes."""
        from ..baselines import BASELINES

        chain = [name]          # down the ``uses`` headers, top first
        while name not in BASELINES and \
                (below := self.load_spec(chain[-1]).base) is not None:
            if below in chain:
                raise MacError(f"layering cycle detected at protocol {below!r}")
            chain.append(below)
        if base is not None and len(chain) == 1:
            raise MacError(f"protocol {name!r} uses no lower layer to replace "
                           f"with {base!r}")
        if name in BASELINES:
            return [BASELINES[name]()]
        if base is None or base == chain[-1]:
            return [self.load_protocol(layer) for layer in reversed(chain)]
        *upper, relayered = chain[:-1]
        below = self.load_stack(base)
        if any(agent_class.PROTOCOL in chain[:-1] for agent_class in below):
            raise MacError(f"layering cycle: {base!r} runs {name!r} already")
        return (below + [self.load_protocol(relayered, base=base)]
                + [self.load_protocol(layer) for layer in reversed(upper)])

    # ------------------------------------------------------------------ output
    def generated_source(self, name: str, *, base: Optional[str] = None) -> str:
        """The generated Python source for the named protocol, re-layered
        over *base* if given."""
        return generate_source(self.load_spec(name), base)

    def write_generated(self, name: str, directory: Path,
                        *, base: Optional[str] = None) -> Path:
        """Write the generated module to *directory* and return its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}_generated.py"
        path.write_text(self.generated_source(name, base=base), encoding="utf-8")
        return path

    def lines_of_code(self) -> dict[str, int]:
        """LOC of every bundled specification (the Figure-7 quantity)."""
        return {name: self.load_spec(name).lines_of_code() for name in self.available()}


#: Process-wide registry over the bundled specifications.
_default_registry: Optional[ProtocolRegistry] = None


def get_registry() -> ProtocolRegistry:
    """The shared registry over the bundled specification directory."""
    global _default_registry
    if _default_registry is None:
        _default_registry = ProtocolRegistry()
    return _default_registry
