"""Cross-process determinism of the protocol-plane fast paths at scale.

The PR-4 fast paths (slotted messages, generation-counter timers, the
inlined transport send, dispatch tables) must not leak any process-local
state — iteration order, id()s, interning — into simulation results.  The
strongest practical check is to run the *same* 200-node registry-compiled
Chord scenario in two fresh interpreter processes and require every metric
to be byte-identical (floats compared via repr, like the benchmark
fingerprints).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Executed in a fresh interpreter per run: a short 200-node Chord scenario
#: (staggered joins + route probes), every metric printed repr-exactly.
SCALE_SCRIPT = r"""
import json
from repro.eval.scenario import ChurnModel, ScenarioSpec, Stack, WorkloadModel
from repro.runtime.failure import FailureDetectorConfig

spec = ScenarioSpec(
    name="scale-determinism",
    agents=Stack("chord"),
    num_nodes=200,
    duration=30.0,
    failure_config=FailureDetectorConfig(failure_timeout=10.0,
                                         heartbeat_timeout=4.0,
                                         check_interval=1.0),
    models=(
        ChurnModel(join="staggered", join_spacing=0.1, churn_fraction=0.0),
        WorkloadModel(kind="route", source=-1, start=21.0, packets=10,
                      gap=0.25),
    ),
)
result = spec.with_seed(7).run()
print(json.dumps({key: repr(value)
                  for key, value in sorted(result.metrics.items())}))
"""


def run_in_fresh_process() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # Randomised string hashing per process: any reliance of the fast paths
    # on dict/set iteration order of strings would show up as a mismatch.
    env["PYTHONHASHSEED"] = "random"
    completed = subprocess.run(
        [sys.executable, "-c", SCALE_SCRIPT],
        capture_output=True, text=True, timeout=300,
        cwd=REPO_ROOT, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.determinism
def test_200_node_chord_metrics_identical_across_processes():
    first = run_in_fresh_process()
    second = run_in_fresh_process()
    assert first == second
    # Sanity: the run actually did something at scale.
    assert float(first["sim.events_processed"]) > 50_000
    assert float(first["nodes.alive"]) == 200.0
