"""Self-check of the benchmark (``python -m pytest bench -q``, well under 30 s).

Every workload runs at a fraction of its size through the real parent/child
path: the manifest matches the code, every metric is present with its unit,
counts and simulated latencies repeat exactly, and tracing changes no count.
"""

from __future__ import annotations

import json
import re

import pytest

from bench import calib, checks
from bench.run import END_TO_END, PER_LAYER_UNITS, ROOT, run_workload
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

#: About a twentieth of a real invocation: one child, small overlays.
SECONDS, SCALE = 0.15, 0.3


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_matches_the_code(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    end_to_end = {m["name"]: m for m in manifest["end_to_end"]}
    assert {name: m["unit"] for name, m in end_to_end.items()} == END_TO_END
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    assert end_to_end["setup_s"]["better"] == "lower"
    assert end_to_end["setup_s"]["bound"] == \
        max(m["bound"] for m in manifest["end_to_end"])
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == \
        PER_LAYER_UNITS
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(names) == len(set(names))
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_repeats_exactly_traced_or_not(name):
    pair = run_workload(name, 3, SECONDS, True, SCALE, 1)
    again = run_workload(name, 3, SECONDS, False, SCALE, 1)
    for result in (pair, again):
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
    # Metric names, units and (never zero) values of both modes.
    assert {k: v["unit"] for k, v in pair["metrics"].items()} == PER_LAYER_UNITS
    assert {k: v["unit"] for k, v in again["metrics"].items()} == END_TO_END
    assert all(entry["value"] > 0 for entry in again["metrics"].values())
    # Same sub-seed three times: untraced, traced, untraced again.
    untraced, traced = pair["children"]
    assert checks.check_pair(untraced, traced) == []
    assert checks.check_pair(untraced, again["children"][0]) == []
    ratio = pair["metrics"]["trace.overhead_ratio"]["value"]
    assert 0.5 < ratio < 3.0


def test_calibration_normalises_an_unrelated_loop():
    """Five repeats of a fixed loop that shares nothing with the kernel
    (string formatting and set arithmetic) must agree within a tenth once
    normalised, whatever the host is doing."""

    def loop() -> int:
        seen = set()
        for i in range(60_000):
            seen.add(f"{i % 977}:{i * 31 % 1013}")
        return len(seen)

    def calibrated() -> float:
        phase = calib.Phase()
        for _ in range(12):
            phase.slice(loop)
        return phase.calibrated_s

    repeats = [calibrated() for _ in range(5)]
    assert (max(repeats) - min(repeats)) / min(repeats) <= 0.10, repeats
