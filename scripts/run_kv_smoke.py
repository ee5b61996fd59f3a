#!/usr/bin/env python
"""CI smoke for the application layer: a 50-node KV store under churn.

Runs one Zipf-skewed replicated-KV scenario (3-way replication, W=2/Q=2
quorums) over registry-compiled Chord with 10% of the membership cycling
out and back, via the ``repro.run`` facade, and gates on the quorum success
ratio plus the version-space consistency checks (no phantom reads).

Usage::

    PYTHONPATH=src python scripts/run_kv_smoke.py --min-success 0.9

Prints one JSON document and exits non-zero below ``--min-success`` or on
any phantom read.  Deliberately separate from the bench ``--check`` gate:
this scores application correctness under churn, not throughput, and never
touches BENCH_core.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.eval.library import FAST_FAILURE, resolve_protocol  # noqa: E402
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel  # noqa: E402


def build_spec(nodes: int, duration: float, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="kv-smoke",
        agents=resolve_protocol("chord"),
        num_nodes=nodes,
        duration=duration,
        seed=seed,
        failure_config=FAST_FAILURE,
        models=(
            ChurnModel(join="staggered",
                       join_spacing=(duration * 0.25) / nodes,
                       churn_fraction=0.10,
                       churn_start=duration * 0.3,
                       churn_end=duration * 0.55,
                       downtime=15.0),
            WorkloadModel(kind="kv", start=duration * 0.45,
                          packets=int(duration * 0.4), gap=1.0,
                          keys=32, zipf_s=1.1, read_fraction=0.7,
                          replicas=3, write_quorum=2, read_quorum=2,
                          # Few fixed clients: an op dies with its issuer, so
                          # a churned client would score against the quorum
                          # path this smoke is meant to gate.
                          clients=4, repair_gap=20.0),
        ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--nodes", type=int, default=50)
    parser.add_argument("--duration", type=float, default=240.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-success", type=float, default=0.9,
                        help="exit 1 if kv quorum success is below this")
    args = parser.parse_args(argv)

    spec = build_spec(args.nodes, args.duration, args.seed)
    result = repro.run(spec)
    workload = {key: value for key, value in result.metrics.items()
                if key.startswith("workload.")}
    print(json.dumps({"name": spec.name, "nodes": args.nodes,
                      "duration": args.duration, "seed": args.seed,
                      "metrics": workload}, indent=2))

    failed = False
    success = result.metrics["workload.quorum_success"]
    if success < args.min_success:
        print(f"FAILED: kv quorum success {success:.3f} < required "
              f"{args.min_success}", file=sys.stderr)
        failed = True
    phantoms = result.metrics["workload.phantom_reads"]
    if phantoms:
        print(f"FAILED: {int(phantoms)} phantom read(s) — a get returned a "
              f"version no client ever wrote", file=sys.stderr)
        failed = True
    if not failed:
        print(f"OK: quorum success {success:.3f} >= {args.min_success}, "
              f"0 phantom reads", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
