"""Compiling and caching generated protocol agents.

Two roads lead from a specification to an
:class:`~repro.runtime.agent.Agent` subclass, both ending in
:func:`repro.codegen.generator.generate_source` → :func:`compile_source`:

* a bundled spec, by name: :meth:`ProtocolRegistry.load_protocol`, which
  generates each ``(name, base)`` variant once per host and keeps its
  source text in ``<specs_dir>/__pycache__`` (below), the class cached per
  ``(name, base)`` in the process;
* ``.mac`` text: :func:`compile_mac` (parse → validate → generate →
  compile), never cached.

A cache entry, ``<name>[__over_<base>].macgen``, is one header line (the
spec's ``uses`` base, a key, the SHA-1 of the text) and the generated text.
The key covers the spec's bytes and path, the base, the Python version and
the path, size and modification time of every source file of the DSL, the
generator and the runtime (:func:`generator_fingerprint`), so an edit to
any of them misses.  A hit compiles the stored text and imports neither
the DSL front end nor the generator; a miss, a short or corrupt entry, or
a stale key generates again and writes the entry through a temporary file
and ``os.replace`` (an unwritable directory writes nothing).  The entry is
source, not bytecode: compiling it in the process keeps what the process
allocates the same as a generating run.  Delete the ``*.macgen`` files to
clear it.

The registry also resolves the protocol *stacks* a
:class:`~repro.eval.scenario.Stack` names: following the ``uses`` headers
down to the lowest layer, or re-layered over another base ("switch Scribe
from Pastry to Chord by changing a single line"), lowest layer first.  The
:mod:`repro.baselines` agents are one-layer stack names.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Type

from ..dsl.errors import CodegenError, MacError
from ..runtime.agent import Agent

try:    # the builtin SHA-1, as ``runtime/keys.py`` takes it: no OpenSSL load
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

if TYPE_CHECKING:
    from ..dsl.ast import ProtocolSpec

#: First word of a cache entry's header line.
_ENTRY_FORMAT = "macgen/1"


def default_specs_dir() -> Path:
    """Directory holding the bundled ``.mac`` specifications."""
    return Path(__file__).resolve().parent.parent / "protocols" / "specs"


def module_name_for(protocol_name: str, base: Optional[str] = None) -> str:
    """Synthetic name of a generated module (its classes' ``__module__``,
    its tracebacks' file), a re-layered variant's its own."""
    if base:
        return f"repro._generated.{protocol_name}__over_{base}"
    return f"repro._generated.{protocol_name}"


def source_fingerprint(root: Path) -> bytes:
    """SHA-1 over the relative path, size and modification time (ns) of
    every source file of ``dsl``, ``codegen`` and ``runtime`` under *root*:
    the stamp CPython trusts a ``.pyc`` by, taken without reading a file."""
    stamps = []
    for package in ("dsl", "codegen", "runtime"):
        for top, dirs, files in os.walk(root / package):
            dirs[:] = [name for name in dirs if name != "__pycache__"]
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(top, name)
                    stat = os.stat(path)
                    stamps.append(f"{os.path.relpath(path, root)} "
                                  f"{stat.st_size} {stat.st_mtime_ns}\n")
    return sha1("".join(sorted(stamps)).encode()).digest()


@functools.lru_cache(maxsize=None)
def generator_fingerprint() -> bytes:
    """:func:`source_fingerprint` of this package, taken once per process:
    what a generated module is made by and runs on."""
    return source_fingerprint(Path(__file__).resolve().parent.parent)


def _entry_key(spec: bytes, path: Path, base: Optional[str]) -> str:
    """The key of the entry generated from *spec* (the bytes of the file at
    *path*, as the generated text names it) over *base*."""
    digest = sha1(repr((str(path), base, sys.version_info[:2])).encode())
    digest.update(generator_fingerprint())
    digest.update(spec)
    return digest.hexdigest()


def _read_entry(path: Path, key: str, *, body: bool = True
                ) -> Optional[tuple[Optional[str], str]]:
    """``(uses, text)`` from the entry at *path* if its key is *key* and its
    text is whole (with *body* false, only the header is read and the text
    is empty); else None."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            header = handle.readline().split()
            text = handle.read() if body else ""
    except (OSError, UnicodeDecodeError):
        return None
    if len(header) != 4 or header[0] != _ENTRY_FORMAT or header[2] != key \
            or (body and header[3] != sha1(text.encode()).hexdigest()):
        return None
    return (None if header[1] == "-" else header[1]), text


def _write_entry(path: Path, key: str, uses: Optional[str], text: str) -> None:
    """Write an entry whole or not at all: a reader sees the old file or the
    new one, never a part."""
    header = f"{_ENTRY_FORMAT} {uses or '-'} {key} {sha1(text.encode()).hexdigest()}\n"
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            handle.write(header + text)
        os.replace(temporary, path)
    except OSError:             # not writable: the caller compiles in memory
        try:
            temporary.unlink(missing_ok=True)
        except OSError:
            pass


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
    from ..dsl.parser import parse_mac
    from ..dsl.validator import validate
    from .generator import generate_source

    spec = parse_mac(text, filename)
    validate(spec)
    return compile_source(generate_source(spec), module_name_for(spec.name))


class ProtocolRegistry:
    """Loads, generates, and caches the bundled protocol suite."""

    def __init__(self, specs_dir: Optional[Path] = None) -> None:
        self.specs_dir = Path(specs_dir) if specs_dir is not None else default_specs_dir()
        #: name -> the spec's bytes and the spec parsed from them.
        self._spec_cache: dict[str, tuple[bytes, ProtocolSpec]] = {}
        self._class_cache: dict[tuple[str, Optional[str]], Type[Agent]] = {}
        #: name -> its spec's ``uses`` base, as its entry or its parse gave it.
        self._uses: dict[str, Optional[str]] = {}

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
            from ..dsl.parser import parse_mac
            from ..dsl.validator import validate

            path = self.spec_path(name)
            data = path.read_bytes()
            spec = parse_mac(data.decode("utf-8"), filename=str(path))
            validate(spec)
            cached = self._spec_cache[name] = (data, spec)
        return cached[1]

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
                (below := self._declared_base(chain[-1])) is not None:
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

    def _declared_base(self, name: str) -> Optional[str]:
        """The ``uses`` base of the named spec: from the header of its entry
        when that is current, else by loading (and so generating) it."""
        if name not in self._uses:
            entry = self._current_entry(name, None, body=False)
            if entry is None:
                self.load_protocol(name)
            else:
                self._uses[name] = entry[0]
        return self._uses[name]

    # ------------------------------------------------------------------ output
    def generated_source(self, name: str, *, base: Optional[str] = None) -> str:
        """The generated Python source for the named protocol, re-layered
        over *base* if given: the current cache entry's text, else generated
        (and the entry written)."""
        entry = self._current_entry(name, base)
        if entry is None:
            from .generator import generate_source

            spec = self.load_spec(name)
            # Keyed on the bytes the spec was parsed from, which an edit
            # since this registry parsed it may no longer match.
            entry = spec.base, generate_source(spec, base)
            _write_entry(self._entry_path(name, base),
                         _entry_key(self._spec_cache[name][0], self.spec_path(name), base),
                         *entry)
        self._uses[name] = entry[0]
        return entry[1]

    def _entry_path(self, name: str, base: Optional[str]) -> Path:
        stem = f"{name}__over_{base}" if base else name
        return self.specs_dir / "__pycache__" / f"{stem}.macgen"

    def _current_entry(self, name: str, base: Optional[str], *, body: bool = True
                       ) -> Optional[tuple[Optional[str], str]]:
        """:func:`_read_entry` of the variant's entry, against the key of
        the spec as it is on disk now."""
        path = self.spec_path(name)
        return _read_entry(self._entry_path(name, base),
                           _entry_key(path.read_bytes(), path, base), body=body)

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
