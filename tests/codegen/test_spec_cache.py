"""The registry's per-host cache of generated modules.

A bundled ``(name, base)`` variant is generated once per host: its text is
kept in ``<specs_dir>/__pycache__/<name>[__over_<base>].macgen``, and a
later load compiles that text without parsing the spec or generating.
Every case runs on a copy of the bundled specs in a temporary directory.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.codegen import ProtocolRegistry, default_specs_dir, generate_source
from repro.codegen import generator, registry as registry_module
from repro.dsl import parser
from repro.protocols import BUNDLED_PROTOCOLS

SRC = Path(__file__).resolve().parents[2] / "src"

#: Every bundled stack's generated modules: each spec at its declared base,
#: and Scribe re-layered over Chord (``Stack("scribe", base="chord")``).
VARIANTS = [(name, None) for name in BUNDLED_PROTOCOLS] + [("scribe", "chord")]

#: sha256 over every variant's freshly generated text (name and base, then
#: the text with the specs directory written ``<specs>``), in ``str`` order
#: of ``(name, base)``.  Any byte the generator emits differently moves it.
GENERATED_SHA256 = \
    "c2aaf345cb9555db6818aca4d06fcfe3f4d46a2f936b09a1669b60ec6ec3d579"


@pytest.fixture
def specs(tmp_path) -> Path:
    """A writable copy of the bundled specification directory."""
    directory = tmp_path / "specs"
    directory.mkdir()
    for path in default_specs_dir().glob("*.mac"):
        shutil.copy(path, directory)
    return directory


@pytest.fixture
def generations(monkeypatch) -> list:
    """The ``(name, base)`` of every generation from here on."""
    calls = []
    real = generator.generate_source

    def counting(spec, base=None):
        calls.append((spec.name, base))
        return real(spec, base)

    monkeypatch.setattr(generator, "generate_source", counting)
    return calls


def entry(specs: Path, name: str, base=None) -> Path:
    return specs / "__pycache__" / (f"{name}__over_{base}.macgen" if base
                                    else f"{name}.macgen")


def fresh_text(specs: Path, name: str, base=None) -> str:
    return generate_source(ProtocolRegistry(specs).load_spec(name), base)


def test_the_generated_text_is_pinned():
    registry = ProtocolRegistry()
    digest = hashlib.sha256()
    for name, base in sorted(VARIANTS, key=str):
        text = generate_source(registry.load_spec(name), base)
        digest.update(f"{name} {base}\n".encode())
        digest.update(text.replace(str(registry.specs_dir), "<specs>").encode())
    assert digest.hexdigest() == GENERATED_SHA256


def test_a_warm_load_is_the_fresh_text_and_parses_nothing(specs, monkeypatch):
    stacks = [(name, None) for name in BUNDLED_PROTOCOLS] + [("scribe", "chord")]
    cold = {stack: [cls.__name__ for cls in ProtocolRegistry(specs).load_stack(*stack)]
            for stack in stacks}
    assert {path.name for path in (specs / "__pycache__").iterdir()} == \
        {entry(specs, *variant).name for variant in VARIANTS}
    expected = {variant: fresh_text(specs, *variant) for variant in VARIANTS}

    def refuse(*args, **kwargs):
        raise AssertionError("a warm load parsed or generated")

    monkeypatch.setattr(generator, "generate_source", refuse)
    monkeypatch.setattr(parser, "parse_mac", refuse)
    warm = ProtocolRegistry(specs)
    for stack, names in cold.items():
        assert [cls.__name__ for cls in warm.load_stack(*stack)] == names
    for (name, base), text in expected.items():
        assert warm.generated_source(name, base=base) == text


def test_an_edited_spec_misses_and_its_class_shows_the_edit(specs, generations):
    assert ProtocolRegistry(specs).load_protocol("randtree") \
        .CONSTANTS["MAX_CHILDREN"] == 4
    path = specs / "randtree.mac"
    path.write_text(path.read_text().replace("MAX_CHILDREN = 4;",
                                             "MAX_CHILDREN = 7;"))
    assert ProtocolRegistry(specs).load_protocol("randtree") \
        .CONSTANTS["MAX_CHILDREN"] == 7
    assert generations == [("randtree", None)] * 2
    assert ProtocolRegistry(specs).generated_source("randtree") == \
        fresh_text(specs, "randtree")
    assert generations == [("randtree", None)] * 2


def test_a_changed_generator_misses(specs, generations, monkeypatch):
    ProtocolRegistry(specs).load_protocol("chord")
    ProtocolRegistry(specs).load_protocol("chord")
    assert generations == [("chord", None)]
    key = entry(specs, "chord").read_text().split()[2]
    monkeypatch.setattr(registry_module, "generator_fingerprint",
                        lambda: bytes(20))
    ProtocolRegistry(specs).load_protocol("chord")
    assert generations == [("chord", None)] * 2
    assert entry(specs, "chord").read_text().split()[2] != key


def test_the_fingerprint_moves_with_a_source_files_size_or_mtime(tmp_path):
    root = tmp_path / "repro"
    for package in ("dsl", "codegen", "runtime"):
        shutil.copytree(SRC / "repro" / package, root / package,
                        ignore=shutil.ignore_patterns("__pycache__"))
    fingerprint = registry_module.source_fingerprint
    original = fingerprint(root)
    assert fingerprint(root) == original
    (root / "runtime" / "__pycache__").mkdir()      # bytecode is no source
    (root / "runtime" / "__pycache__" / "stray.py").write_text("")
    assert fingerprint(root) == original

    path = root / "runtime" / "keys.py"
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
    touched = fingerprint(root)
    assert touched != original
    path.write_bytes(path.read_bytes() + b"\n")      # grown, same mtime
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    grown = fingerprint(root)
    assert grown not in (original, touched)
    (root / "dsl" / "new.py").write_text("")
    assert fingerprint(root) not in (original, touched, grown)


def _truncate(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _flip_a_text_byte(data: bytes) -> bytes:
    at = len(data) - 10
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _garble_the_header(data: bytes) -> bytes:
    return b"\xff\xfenot an entry\n" + data.split(b"\n", 1)[1]


@pytest.mark.parametrize("damage", [_truncate, _flip_a_text_byte,
                                    _garble_the_header, lambda data: b""],
                         ids=["truncated", "flipped", "garbled", "empty"])
def test_a_short_or_corrupt_entry_misses_and_is_rewritten(specs, generations,
                                                          damage):
    ProtocolRegistry(specs).load_protocol("pastry")
    path = entry(specs, "pastry")
    whole = path.read_bytes()
    path.write_bytes(damage(whole))
    assert ProtocolRegistry(specs).load_protocol("pastry").__name__ == \
        "PastryAgent"
    assert generations == [("pastry", None)] * 2
    assert path.read_bytes() == whole


def _pycache_is_a_file(specs: Path) -> None:
    (specs / "__pycache__").write_text("")


def _read_only_specs(specs: Path) -> None:
    if os.geteuid() == 0:
        pytest.skip("root writes through a read-only mode")
    specs.chmod(0o555)


@pytest.mark.parametrize("unwritable", [_pycache_is_a_file, _read_only_specs],
                         ids=["pycache-is-a-file", "read-only"])
def test_an_unwritable_directory_still_loads_and_writes_nothing(
        specs, generations, unwritable):
    unwritable(specs)
    try:
        before = sorted(specs.rglob("*"))
        for _ in range(2):
            classes = ProtocolRegistry(specs).load_stack("scribe")
            assert [cls.__name__ for cls in classes] == \
                ["PastryAgent", "ScribeAgent"]
        assert sorted(specs.rglob("*")) == before
        assert len(generations) == 4
    finally:
        specs.chmod(0o755)


WRITER = r"""
import sys, time
from pathlib import Path
import repro.codegen.generator      # the slow imports come before the signal
from repro.codegen.registry import ProtocolRegistry

specs, go = Path(sys.argv[1]), Path(sys.argv[2])
while not go.exists():
    time.sleep(0.001)
ProtocolRegistry(specs).load_protocol("pastry")
"""


def test_two_writers_leave_one_whole_entry(specs, tmp_path, monkeypatch):
    go = tmp_path / "go"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    writers = [subprocess.Popen([sys.executable, "-c", WRITER, str(specs), str(go)],
                                env=env, stderr=subprocess.PIPE, text=True)
               for _ in range(2)]
    time.sleep(0.5)             # both import, then wait on the same signal
    go.touch()
    for writer in writers:
        _, stderr = writer.communicate(timeout=60)
        assert writer.returncode == 0, stderr
    assert [path.name for path in (specs / "__pycache__").iterdir()] == \
        ["pastry.macgen"]

    def refuse(*args, **kwargs):
        raise AssertionError("the entry the writers left was not used")

    expected = fresh_text(specs, "pastry")
    monkeypatch.setattr(generator, "generate_source", refuse)
    assert ProtocolRegistry(specs).generated_source("pastry") == expected
