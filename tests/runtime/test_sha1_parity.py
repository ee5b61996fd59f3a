"""``hash_key`` hashes with the builtin ``_sha1`` where the interpreter has
it, so a simulated run never loads OpenSSL; its keys must equal those of
``hashlib.sha1`` bit for bit, for every identifier type and at every key
width the bundled stacks use."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, strategies as st

from repro.baselines import BASELINES
from repro.codegen import get_registry
from repro.eval import Stack
from repro.runtime.keys import hash_key

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _stack_widths() -> list[int]:
    names = get_registry().available() + sorted(BASELINES)
    return sorted({agent.KEY_SPACE.bits
                   for name in names for agent in Stack(name).resolve()})


#: The specs' widths and the two ends of the range ``hash_bytes`` accepts.
WIDTHS = sorted({1, 160, *_stack_widths()})

IDENTIFIERS = st.one_of(st.text(), st.binary(),
                        st.integers(min_value=0, max_value=2**64 - 1))


def reference_key(value, bits: int) -> int:
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, int):
        data = value.to_bytes(8, "big")
    else:
        data = value.encode("utf-8")
    return int.from_bytes(hashlib.sha1(data).digest(), "big") >> (160 - bits)


def test_the_stacks_route_on_32_bit_keys():
    assert _stack_widths() == [32]


@given(value=IDENTIFIERS, bits=st.sampled_from(WIDTHS))
def test_hash_key_equals_hashlib_sha1(value, bits):
    assert hash_key(value, bits) == reference_key(value, bits)


def test_the_hashlib_fallback_gives_the_same_keys():
    script = ("import sys; sys.modules['_sha1'] = None\n"
              "from repro.runtime.keys import hash_key, sha1\n"
              "assert sha1.__module__ != '_sha1'\n"
              "print(hash_key('node-1'), hash_key(7, 160), hash_key(b'x', 1))")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == [
        str(reference_key("node-1", 32)), str(reference_key(7, 160)),
        str(reference_key(b"x", 1))]
