#!/usr/bin/env python
"""Differential sim-vs-live harness: one spec, both modes, declared drift.

Runs one :class:`~repro.eval.scenario.ScenarioSpec` through
``repro.run(mode="sim")`` and ``repro.run(mode="live")`` across a set of
seeds, diffs the metric distributions against per-metric tolerances (see
:mod:`repro.eval.diff`), checks the invariants on every live result,
and prints a machine-readable drift report (schema ``repro.diff/1``).

The default spec is a small chord deployment with mid-run churn — one fault
model's draw run two ways: the scenario engine crashes simulated nodes; the
live coordinator SIGKILLs the same victims' processes at the same spec
instants and respawns them, with protocol timers and the failure detector on
the same spec clock.  Pass
``--artifact`` to diff a fuzzer-generated spec instead (only live-runnable
artifacts: ``repro.fuzz/1`` files tag themselves).

Usage::

    PYTHONPATH=src python scripts/run_diff.py --seeds 2
    PYTHONPATH=src python scripts/run_diff.py --artifact fuzz-000123.json \
        --out drift.json

Exits non-zero on drift beyond tolerance, a missing required metric, a
metric only one mode emitted, or any live invariant violation — the CI
``diff-smoke`` gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.diff import (DEFAULT_TOLERANCES, Tolerance,  # noqa: E402
                             run_diff)


def default_spec():
    """Small chord churn spec sized for a CI machine: 6 nodes, one node
    fail-stops mid-workload and rejoins, lookups keep flowing throughout."""
    from repro.eval import Stack
    from repro.eval.library import FAST_FAILURE
    from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel

    return ScenarioSpec(
        name="diff-chord-churn",
        agents=Stack("chord"),
        num_nodes=6,
        duration=120.0,
        failure_config=FAST_FAILURE,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5,
                       churn_fraction=0.2, churn_start=30.0, churn_end=60.0,
                       downtime=8.0),
            WorkloadModel(kind="route", source=-1, start=15.0, packets=48,
                          gap=2.0),
        ),
    )


def artifact_spec(path: Path):
    from repro.eval.fuzz import spec_from_dict
    from repro.live.faults import live_runnable

    payload = json.loads(path.read_text())
    spec_dict = payload.get("spec", payload)
    spec = spec_from_dict(spec_dict)
    ok, reason = live_runnable(spec)
    if not ok:
        raise SystemExit(f"artifact {path} is not live-runnable: {reason}")
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--artifact", type=Path, default=None,
                        help="diff a repro.fuzz/1 artifact instead of the "
                             "built-in chord churn spec")
    parser.add_argument("--seeds", type=int, default=1,
                        help="seed count; seed i of N runs both modes "
                             "(default 1)")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="first seed (default 1)")
    parser.add_argument("--base-port", type=int, default=47400,
                        help="first UDP port for the live deployments "
                             "(default 47400)")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="METRIC=ABS",
                        help="override one metric's absolute tolerance "
                             "(repeatable), e.g. workload.success_ratio=0.2")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the JSON report to this path")
    args = parser.parse_args(argv)

    spec = artifact_spec(args.artifact) if args.artifact else default_spec()

    tolerances = list(DEFAULT_TOLERANCES)
    for override in args.tolerance:
        metric, _, value = override.partition("=")
        if not value:
            parser.error(f"--tolerance wants METRIC=ABS, got {override!r}")
        tolerances = [t for t in tolerances if t.metric != metric]
        tolerances.append(Tolerance(metric, abs=float(value)))

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = run_diff(spec, seeds=seeds, tolerances=tolerances,
                      live_overrides={"base_port": args.base_port})

    document = report.to_dict()
    print(json.dumps(document, indent=2))
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
