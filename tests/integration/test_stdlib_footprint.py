"""The package runs on the standard library alone, and a simulated run on
less of it.

networkx is a test oracle and a benchmark dependency, never a runtime one:
its import costs every run, forked seed worker and live process about half
of ``import repro`` and 13 MB of RSS.  A fresh interpreter with networkx
made unimportable imports every entry-point module and runs a short
simulated Chord scenario; an import of networkx anywhere under ``src/``
fails there, at its import site.

The live socket network (:mod:`repro.transport.udp`) loads asyncio and,
through it, ssl, socket, selectors and subprocess: about 40 ms of import
and 4 MB of RSS that no simulated run uses.  A second interpreter imports
only the simulation's entry points, runs the same spec and finds none of
them in ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

RUN_CHORD = r"""
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

WITHOUT_NETWORKX = r"""
import sys
sys.modules["networkx"] = None      # any `import networkx` now raises

import repro
import repro.eval.fuzz
import repro.eval.scenario
import repro.live.cluster
import repro.transport.udp
""" + RUN_CHORD

SIMULATION_ONLY = r"""
import sys

import repro
import repro.eval.fuzz
import repro.eval.scenario
import repro.transport
""" + RUN_CHORD + r"""
live_only = ("asyncio", "ssl", "socket", "selectors", "subprocess")
loaded = [name for name in live_only if name in sys.modules]
assert not loaded, f"a simulated run loaded {loaded}"
"""


def _run(script: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, cwd=REPO_ROOT, env=env)
    assert completed.returncode == 0, completed.stderr


def test_the_package_imports_and_runs_without_networkx():
    _run(WITHOUT_NETWORKX)


def test_a_simulated_run_does_not_load_the_socket_stack():
    _run(SIMULATION_ONLY)


def test_the_socket_module_re_exports_the_best_effort_transport():
    # The benchmark tracer wraps UdpTransport's methods through
    # repro.transport.udp; a second class there would go unwrapped.
    from repro.transport import best_effort, udp

    assert udp.UdpTransport is best_effort.UdpTransport
