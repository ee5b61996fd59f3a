#!/usr/bin/env python
"""Report over ``repro.trace/1`` / ``repro.obs/1`` observability artifacts.

Both execution modes produce the same artifact shapes (see
docs/OBSERVABILITY.md): one :class:`TraceSink` writes ``repro.trace/1``
JSONL — the simulator's records as they happen, the live nodes' shipped
records at the coordinator — with times in spec seconds, and every mode
folds its process reports into a ``repro.obs/1`` metrics snapshot.  This
script is therefore mode-agnostic: point it at any trace file and it
prints per-category record counts, the top-talking nodes, the
reconstructed per-request route paths (hop-count histogram plus per-hop
latency distribution), and — with ``--obs`` — a summary of the metrics
snapshot, drift-ready for diffing against another run's.

Usage::

    PYTHONPATH=src python scripts/run_trace.py trace.jsonl
    PYTHONPATH=src python scripts/run_trace.py trace.jsonl --obs obs.json
    PYTHONPATH=src python scripts/run_trace.py trace.jsonl --routes 5 --json

Exits non-zero if an artifact fails schema validation — the same check the
CI obs-smoke job relies on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.metrics import mean, percentile          # noqa: E402
from repro.obs import (load_obs_snapshot, load_trace,    # noqa: E402
                       reconstruct_routes)


def category_counts(records: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        counts[record["cat"]] = counts.get(record["cat"], 0) + 1
    return dict(sorted(counts.items(), key=lambda item: -item[1]))


def top_talkers(records: list[dict], limit: int) -> list[dict]:
    per_node: dict[int, int] = {}
    for record in records:
        per_node[record["node"]] = per_node.get(record["node"], 0) + 1
    ranked = sorted(per_node.items(), key=lambda item: (-item[1], item[0]))
    return [{"node": node, "records": count}
            for node, count in ranked[:limit]]


def route_summary(routes: list[dict]) -> dict:
    if not routes:
        return {"routes": 0}
    hop_histogram: dict[int, int] = {}
    for route in routes:
        hop_histogram[route["hops"]] = hop_histogram.get(route["hops"], 0) + 1
    hop_latencies = [latency for route in routes
                     for latency in route["latencies"]]
    totals = [route["total_latency"] for route in routes]
    return {
        "routes": len(routes),
        "hops_mean": mean([float(route["hops"]) for route in routes]),
        "hops_max": max(route["hops"] for route in routes),
        "hop_histogram": {str(hops): count for hops, count
                          in sorted(hop_histogram.items())},
        "hop_latency_mean": mean(hop_latencies),
        "hop_latency_p95": percentile(hop_latencies, 0.95),
        "total_latency_mean": mean(totals),
        "total_latency_p95": percentile(totals, 0.95),
    }


def obs_summary(snapshot: dict) -> dict:
    return {
        "mode": snapshot.get("mode"),
        "name": snapshot.get("name"),
        "seed": snapshot.get("seed"),
        "counters": {name: value
                     for name, value in snapshot["counters"].items()
                     if value},
        "gauges": snapshot["gauges"],
        "histograms": {
            name: {"count": histogram["count"],
                   "mean": (histogram["sum"] / histogram["count"]
                            if histogram["count"] else 0.0),
                   "max": histogram["max"]}
            for name, histogram in snapshot["histograms"].items()
            if histogram["count"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Summarise repro.trace/1 and repro.obs/1 artifacts")
    parser.add_argument("trace", help="repro.trace/1 JSONL file")
    parser.add_argument("--obs", help="repro.obs/1 snapshot to summarise")
    parser.add_argument("--talkers", type=int, default=8,
                        help="how many top-talking nodes to list")
    parser.add_argument("--routes", type=int, default=3,
                        help="how many example route paths to print")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON document")
    args = parser.parse_args()

    try:
        header, records = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    routes = reconstruct_routes(records)
    report = {
        "file": args.trace,
        "header": header,
        "records": len(records),
        "categories": category_counts(records),
        "top_talkers": top_talkers(records, args.talkers),
        "route_paths": route_summary(routes),
        "example_routes": [
            {"trace_id": route["trace_id"], "path": route["path"],
             "hops": route["hops"],
             "total_latency": route["total_latency"]}
            for route in routes[:args.routes]],
    }
    if args.obs:
        try:
            report["obs"] = obs_summary(load_obs_snapshot(args.obs))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.json:
        print(json.dumps(report, indent=2, default=repr))
        return 0

    print(f"trace: {args.trace}  ({report['records']} records, "
          f"mode={header.get('mode', '?')})")
    print("  per-category records:")
    for category, count in report["categories"].items():
        print(f"    {category:<16} {count}")
    print("  top talkers:")
    for talker in report["top_talkers"]:
        print(f"    node {talker['node']:<12} {talker['records']} records")
    paths = report["route_paths"]
    print(f"  routes: {paths.get('routes', 0)}")
    if paths.get("routes"):
        print(f"    hops mean/max:        "
              f"{paths['hops_mean']:.2f} / {paths['hops_max']}")
        print(f"    hop histogram:        {paths['hop_histogram']}")
        print(f"    hop latency mean/p95: {paths['hop_latency_mean']:.6f} / "
              f"{paths['hop_latency_p95']:.6f}")
        print(f"    total latency p95:    {paths['total_latency_p95']:.6f}")
        for route in report["example_routes"]:
            print(f"    e.g. trace {route['trace_id']}: "
                  f"{' -> '.join(str(n) for n in route['path'])} "
                  f"({route['total_latency']:.6f}s)")
    if "obs" in report:
        obs = report["obs"]
        print(f"obs: {args.obs}  (mode={obs['mode']}, name={obs['name']}, "
              f"seed={obs['seed']})")
        for name, value in obs["counters"].items():
            print(f"    {name:<28} {value}")
        for name, value in obs["gauges"].items():
            print(f"    {name:<28} {value}")
        for name, summary in obs["histograms"].items():
            print(f"    {name:<28} count={summary['count']} "
                  f"mean={summary['mean']:.6f} max={summary['max']:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
