"""The package runs on the standard library alone.

networkx is a test oracle and a benchmark dependency, never a runtime one:
its import costs every run, forked seed worker and live process about half
of ``import repro`` and 13 MB of RSS.  A fresh interpreter with networkx
made unimportable imports every entry-point module and runs a short
simulated Chord scenario; an import of networkx anywhere under ``src/``
fails there, at its import site.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SCRIPT = r"""
import sys
sys.modules["networkx"] = None      # any `import networkx` now raises

import repro
import repro.eval.fuzz
import repro.eval.scenario
import repro.live.cluster
import repro.transport.udp
from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel

spec = ScenarioSpec(
    name="stdlib-footprint", agents=resolve_protocol("chord"), num_nodes=6,
    duration=20.0, seed=1,
    models=(ChurnModel(join="staggered", join_spacing=0.5),
            WorkloadModel(kind="route", source=-1, start=10.0, packets=5,
                          gap=1.0)))
result = repro.run(spec)
assert result.metrics, "the run reported no metrics"
"""


def test_the_package_imports_and_runs_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=120, cwd=REPO_ROOT, env=env)
    assert completed.returncode == 0, completed.stderr
