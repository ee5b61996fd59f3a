"""The canonical metric namespace and the fold that fills it.

Every execution mode — the simulator and the live cluster — builds its
``repro.obs/1`` snapshot with :func:`fold_snapshot`, which starts from the
full namespace at zero.  That makes the key set *structural*: a counter
that cannot tick in some mode (``errors.decode_errors`` in sim) is still
present at zero, so snapshots from different modes of the same spec always
carry identical keys and can be diffed field-by-field (the drift harness's
requirement).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from .trace import OBS_SCHEMA

#: Workload end-to-end latency (simulated or wall-clock seconds).
LATENCY_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)
#: Single overlay-hop latency.
HOP_LATENCY_BOUNDS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
#: Route length in overlay hops.  A route is at least one hop (a direct
#: A->B delivery), so bucket 0 (below 2) holds exactly the one-hop routes.
ROUTE_HOP_BOUNDS = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0)

COUNTERS = (
    "engine.events_processed",
    "net.packets_sent",
    "net.packets_delivered",
    "net.packets_dropped",
    "net.bytes_delivered",
    "workload.sent",
    "workload.delivered",
    "workload.duplicates",
    "workload.skipped",
    "errors.callback_errors",
    "errors.decode_errors",
    "errors.reassembly_timeouts",
    "errors.fault_drops",
    "trace.records",
    "trace.dropped",
    "causal.traces",
    "causal.hops",
)

GAUGES = ("nodes.alive", "nodes.total")

HISTOGRAMS = {
    "workload.latency": LATENCY_BOUNDS,
    "causal.hop_latency": HOP_LATENCY_BOUNDS,
    "causal.route_hops": ROUTE_HOP_BOUNDS,
}


def histogram(bounds: Sequence[float], values: Iterable[float]) -> dict:
    """One fixed-bucket histogram row over *values*.

    Bucket ``i`` counts ``bounds[i - 1] <= value < bounds[i]``
    (:func:`bisect.bisect_right`), so a value equal to a bound lands in the
    bucket that bound opens; one overflow bucket holds everything from the
    last bound up, so ``counts`` has ``len(bounds) + 1`` entries.  Fixed
    bounds make two runs (sim vs live, this build vs last) comparable
    bucket-wise.
    """
    edges = [float(bound) for bound in bounds]
    values = [float(value) for value in values]
    counts = [0] * (len(edges) + 1)
    total = 0.0
    for value in values:
        counts[bisect_right(edges, value)] += 1
        # Not sum(): it is compensated from Python 3.12, and the pinned
        # snapshot must not depend on the interpreter.
        total += value
    return {"bounds": edges, "counts": counts, "count": len(values),
            "sum": total, "min": min(values, default=None),
            "max": max(values, default=None)}


def fold_snapshot(reports: Iterable[dict], workloads: Sequence[str], *,
                  mode: str, name: str, seed: int, duration: float,
                  nodes_total: int, nodes_alive: int) -> dict:
    """The ``repro.obs/1`` snapshot of a finished run, folded from its
    per-process reports — the one report of a simulated run, or every live
    node's.

    A report counts what its process saw: ``events_processed``, ``net``
    packets, ``trace`` records, its ``causal`` section
    (:meth:`~repro.obs.causal.CausalLog.report`) and, live, ``socket``
    errors and driver callback errors; ``models`` maps each label in
    *workloads* to that workload's observation payload
    (:meth:`~repro.eval.workload.WorkloadObservations.payload`).  A trace's
    route length is one more than its highest hop in any report.
    """
    counters = dict.fromkeys(COUNTERS, 0)
    latencies: list = []
    hop_latencies: list = []
    max_hop: dict[int, int] = {}
    for report in reports:
        counters["engine.events_processed"] += report["events_processed"]
        for key, value in report.get("net", {}).items():
            counters[f"net.{key}"] += value
        for label in workloads:
            payload = report["models"].get(label)
            if payload is None:
                continue
            records = payload["records"]
            counters["workload.sent"] += len(payload["sent"])
            counters["workload.delivered"] += len(records)
            counters["workload.duplicates"] += payload["duplicates"]
            counters["workload.skipped"] += payload["skipped"]
            # Delivery records end in their latency; a kv record carries
            # (issued_at, completed_at) at [5:7] instead.
            latencies.extend(record[6] - record[5] if len(record) > 3
                             else record[2] for record in records)
        socket_stats = report.get("socket", {})
        counters["errors.callback_errors"] += report.get(
            "callback_error_count", 0)
        for key in ("decode_errors", "reassembly_timeouts", "fault_drops"):
            counters[f"errors.{key}"] += socket_stats.get(key, 0)
        trace_stats = report.get("trace", {})
        counters["trace.records"] += trace_stats.get("records", 0)
        counters["trace.dropped"] += trace_stats.get("dropped", 0)
        causal = report.get("causal")
        if causal is not None:
            counters["causal.traces"] += causal["traces"]
            counters["causal.hops"] += causal["hops"]
            hop_latencies.extend(causal["hop_latencies"])
            for trace_id, hop in causal["max_hop"].items():
                if hop > max_hop.get(trace_id, -1):
                    max_hop[trace_id] = hop
    values = {"workload.latency": latencies,
              "causal.hop_latency": hop_latencies,
              "causal.route_hops": [hop + 1 for hop in max_hop.values()]}
    gauges = {"nodes.alive": float(nodes_alive),
              "nodes.total": float(nodes_total)}
    return {"schema": OBS_SCHEMA, "mode": mode, "name": name, "seed": seed,
            "duration": duration,
            "counters": dict(sorted(counters.items())),
            "gauges": {key: gauges[key] for key in sorted(GAUGES)},
            "histograms": {key: histogram(HISTOGRAMS[key], values[key])
                           for key in sorted(HISTOGRAMS)}}
