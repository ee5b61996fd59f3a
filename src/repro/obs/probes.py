"""The canonical instrument namespace and per-mode fill helpers.

Every execution mode — the simulator and the live cluster — snapshots
through :func:`base_registry`, which pre-creates the full instrument set.
That makes the ``repro.obs/1`` key set *structural*: a counter that cannot
tick in some mode (``errors.decode_errors`` in sim) is still present at
zero, so snapshots from different modes of the same spec always carry
identical keys and can be diffed field-by-field (the drift harness's
requirement).

:func:`fill` translates the per-process reports of a run, in either mode,
into the shared namespace at end of run, the same way for both.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .registry import MetricsRegistry
from .trace import OBS_SCHEMA

#: Workload end-to-end latency (simulated or wall-clock seconds).
LATENCY_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)
#: Single overlay-hop latency.
HOP_LATENCY_BOUNDS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
#: Route length in overlay hops (a direct A->B delivery is 1).
ROUTE_HOP_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

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


def base_registry() -> MetricsRegistry:
    """A registry with the full canonical namespace pre-created at zero."""
    registry = MetricsRegistry()
    for name in COUNTERS:
        registry.counter(name)
    for name in GAUGES:
        registry.gauge(name)
    for name, bounds in HISTOGRAMS.items():
        registry.histogram(name, bounds)
    return registry


def artifact(registry: MetricsRegistry, *, mode: str, name: str, seed: int,
             duration: float) -> dict:
    """Wrap a registry snapshot as a ``repro.obs/1`` document."""
    snapshot = {"schema": OBS_SCHEMA, "mode": mode, "name": name,
                "seed": seed, "duration": duration}
    snapshot.update(registry.snapshot())
    return snapshot


def fill(registry: MetricsRegistry, reports: Iterable[dict],
         workloads: Sequence[str], *, nodes_total: int,
         nodes_alive: int) -> None:
    """Fold a finished run's per-process reports into *registry* — the one
    report of a simulated run, or every live node's.

    A report counts what its process saw: ``events_processed``, ``net``
    packets, ``trace`` records, its ``causal`` section
    (:meth:`~repro.obs.causal.CausalLog.report`) and, live, ``socket``
    errors and driver callback errors; ``models`` maps each label in
    *workloads* to that workload's observation payload
    (:meth:`~repro.eval.workload.WorkloadObservations.payload`).  A trace's
    route length is one more than its highest hop in any report.
    """
    counter = registry.counter
    latency = registry.histogram("workload.latency")
    hop_latency = registry.histogram("causal.hop_latency")
    max_hop: dict[int, int] = {}
    for report in reports:
        counter("engine.events_processed").inc(report["events_processed"])
        for key, value in report.get("net", {}).items():
            counter(f"net.{key}").inc(value)
        for label in workloads:
            payload = report["models"].get(label)
            if payload is None:
                continue
            records = payload["records"]
            counter("workload.sent").inc(len(payload["sent"]))
            counter("workload.delivered").inc(len(records))
            counter("workload.duplicates").inc(payload["duplicates"])
            counter("workload.skipped").inc(payload["skipped"])
            # Delivery records end in their latency; a kv record carries
            # (issued_at, completed_at) at [5:7] instead.
            latency.observe_many(record[6] - record[5] if len(record) > 3
                                 else record[2] for record in records)
        socket_stats = report.get("socket", {})
        counter("errors.callback_errors").inc(
            report.get("callback_error_count", 0))
        for key in ("decode_errors", "reassembly_timeouts", "fault_drops"):
            counter(f"errors.{key}").inc(socket_stats.get(key, 0))
        trace_stats = report.get("trace", {})
        counter("trace.records").inc(trace_stats.get("records", 0))
        counter("trace.dropped").inc(trace_stats.get("dropped", 0))
        causal = report.get("causal")
        if causal is not None:
            counter("causal.traces").inc(causal["traces"])
            counter("causal.hops").inc(causal["hops"])
            hop_latency.observe_many(causal["hop_latencies"])
            for trace_id, hop in causal["max_hop"].items():
                if hop > max_hop.get(trace_id, -1):
                    max_hop[trace_id] = hop
    registry.gauge("nodes.alive").set(nodes_alive)
    registry.gauge("nodes.total").set(nodes_total)
    registry.histogram("causal.route_hops").observe_many(
        hop + 1 for hop in max_hop.values())
