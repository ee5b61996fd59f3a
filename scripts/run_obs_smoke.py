#!/usr/bin/env python
"""CI obs-smoke: run a small traced scenario, validate every artifact.

Runs an 8-node Chord spec with full observability attached (trace export,
causal message tracing, metrics snapshot), then checks the whole artifact
chain end to end:

* the ``repro.obs/1`` snapshot file round-trips and passes schema
  validation, and its counters agree with the run;
* the ``repro.trace/1`` JSONL stream loads, and causal ``route_hop``
  records reconstruct into route paths with hop counts and per-hop
  latencies; the snapshot's ``causal.route_hops`` histogram counts every
  route, and its bucket 0 exactly the one-hop ones;
* running the *same* spec without observability produces byte-identical
  metrics — the disabled path must not perturb the simulation.

It then deploys a 4-node live Chord cluster (5 spec-s, ``time_scale`` 1,
real processes and loopback sockets on ``--base-port`` onward) with causal
tracing on, and applies the same route checks to its trace, plus the
spec-clock bound: every ``route_hop`` time lies in ``[0, duration + 1]``.
Its snapshot must carry exactly the sim snapshot's ``counters``,
``gauges`` and ``histograms`` keys: the namespace is structural.

Artifacts land in ``--out-dir`` (``trace.jsonl``/``obs.json`` for the
simulated run, ``live-trace.jsonl``/``live-obs.json`` for the live one) so
the CI job can upload them; exits non-zero on any check failure.

Usage::

    PYTHONPATH=src python scripts/run_obs_smoke.py --out-dir obs-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval import Stack                              # noqa: E402
from repro.eval.scenario import (ChurnModel, ScenarioSpec,  # noqa: E402
                                 WorkloadModel)
from repro.live import LiveCluster, LiveClusterConfig      # noqa: E402
from repro.obs import (ObsConfig, load_obs_snapshot,       # noqa: E402
                       load_trace, reconstruct_routes)


def build_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="obs-smoke", agents=Stack("chord"),
        num_nodes=8, duration=40.0, seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="route", source=-1, start=10.0,
                              packets=24, gap=1.0)))


def build_live_spec(trace_path: Path, snapshot_path: Path) -> ScenarioSpec:
    """The shape of ``tests/live/test_obs_live.py``: joins 0.1 s apart, then
    16 routed packets, in spec seconds on a ``time_scale`` 1 clock."""
    return ScenarioSpec(
        name="obs-smoke-live", agents=Stack("chord"),
        num_nodes=4, duration=5.0, seed=5,
        obs=ObsConfig(trace_path=str(trace_path), causal=True,
                      snapshot_path=str(snapshot_path)),
        models=(ChurnModel(join="staggered", join_spacing=0.1),
                WorkloadModel(kind="route", source=-1, start=1.4,
                              packets=16, gap=0.2)))


def check_routes(check, label: str, records: list[dict],
                 snapshot: dict) -> list[dict]:
    """The route checks both modes' traces must pass; returns the routes."""
    routes = reconstruct_routes(records)
    check(len(routes) > 0, f"{label}: route paths reconstructed")
    check(all(route["hops"] >= 1 and len(route["path"]) == route["hops"] + 1
              for route in routes), f"{label}: route path lengths consistent")
    check(all(len(route["latencies"]) == route["hops"] for route in routes),
          f"{label}: per-hop latencies present")
    hop_histogram = snapshot["histograms"]["causal.route_hops"]
    check(hop_histogram["count"] == len(routes),
          f"{label}: route-hop histogram count matches reconstructed routes")
    one_hop = sum(1 for route in routes if route["hops"] == 1)
    check(hop_histogram["counts"][0] == one_hop,
          f"{label}: route-hop bucket 0 holds the {one_hop} one-hop routes")
    counters = snapshot["counters"]
    check(counters["trace.records"] >= counters["causal.hops"] > 0,
          f"{label}: every hop is a counted trace record")
    return routes


def main() -> int:
    parser = argparse.ArgumentParser(description="Observability smoke test")
    parser.add_argument("--out-dir", default="obs-artifacts",
                        help="directory the artifacts are written into")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--base-port", type=int, default=49300,
                        help="first UDP port of the live cluster")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    snapshot_path = out_dir / "obs.json"

    failures: list[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures.append(label)

    spec = build_spec(args.seed)
    print("running baseline (obs off) ...")
    baseline = spec.run()

    print("running traced (obs on) ...")
    traced_spec = replace(spec, obs=ObsConfig(
        trace_path=str(trace_path), causal=True,
        snapshot_path=str(snapshot_path)))
    traced = traced_spec.run()

    check(traced.metrics == baseline.metrics,
          "obs-on metrics byte-identical to obs-off")
    check(traced.obs is not None, "result carries an obs snapshot")

    # Snapshot file: schema-validated on load.
    snapshot = load_obs_snapshot(str(snapshot_path))
    check(snapshot["schema"] == "repro.obs/1", "snapshot schema")
    check(snapshot["mode"] == "sim", "snapshot mode")
    counters = snapshot["counters"]
    check(counters["workload.sent"] == 24, "workload.sent counter")
    check(counters["net.packets_sent"] > 0, "net.packets_sent counter")
    check(counters["causal.traces"] > 0, "causal traces recorded")
    check(counters["trace.records"] > 0, "trace records counted")

    # Trace stream: loads, and causal records reconstruct into routes.
    header, records = load_trace(str(trace_path))
    check(header["schema"] == "repro.trace/1", "trace schema")
    check(len(records) > 0, "trace records written")
    routes = check_routes(check, "sim", records, snapshot)

    # The same checks on a live deployment's trace, in spec seconds.
    live_trace_path = out_dir / "live-trace.jsonl"
    live_snapshot_path = out_dir / "live-obs.json"
    live_spec = build_live_spec(live_trace_path, live_snapshot_path)
    print("running live cluster (obs on) ...")
    LiveCluster(LiveClusterConfig(live_spec, time_scale=1.0,
                                  base_port=args.base_port)).run()
    live_snapshot = load_obs_snapshot(str(live_snapshot_path))
    check(live_snapshot["mode"] == "live", "live snapshot mode")
    live_header, live_records = load_trace(str(live_trace_path))
    check(live_header["mode"] == "live", "live trace mode")
    check(live_snapshot["name"] == live_header["name"] == live_spec.name,
          "live snapshot and trace carry the spec's name")
    live_routes = check_routes(check, "live", live_records, live_snapshot)
    check(all(0.0 <= record["t"] <= live_spec.duration + 1.0
              for record in live_records if record["cat"] == "route_hop"),
          "live: route_hop times are spec seconds")
    for section in ("counters", "gauges", "histograms"):
        check(set(live_snapshot[section]) == set(snapshot[section]),
              f"live and sim snapshots share their {section} keys")

    summary = {
        "records": len(records),
        "routes": len(routes),
        "max_hops": max(route["hops"] for route in routes) if routes else 0,
        "live_records": len(live_records),
        "live_routes": len(live_routes),
        "counters": {name: value for name, value in counters.items() if value},
        "failures": failures,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=2))
    if failures:
        print(f"obs smoke FAILED ({len(failures)} check(s))",
              file=sys.stderr)
        return 1
    print("obs smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
