"""The canonical instrument namespace and per-mode fill helpers.

Every execution mode — single-process sim, the sharded kernel, the live
cluster — snapshots through :func:`base_registry`, which pre-creates the
full instrument set.  That makes the ``repro.obs/1`` key set *structural*:
a counter that cannot tick in some mode (``errors.decode_errors`` in sim,
``shard.windows`` in live) is still present at zero, so snapshots from
different modes of the same spec always carry identical keys and can be
diffed field-by-field (the drift harness's requirement).

The fill helpers translate each mode's native accounting into the shared
namespace at end of run; hot-path instruments (``causal.*``,
``shard.windows``/``shard.batch_size``) are instead updated live by the
probe sites themselves.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .registry import MetricsRegistry
from .trace import OBS_SCHEMA

#: Workload end-to-end latency (simulated or wall-clock seconds).
LATENCY_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)
#: Single overlay-hop latency.
HOP_LATENCY_BOUNDS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
#: Route length in overlay hops (a direct A->B delivery is 1).
ROUTE_HOP_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
#: Cross-shard packets exchanged per barrier window.
BATCH_BOUNDS = (0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)

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
    "shard.windows",
    "shard.cross_shard_packets",
    "causal.traces",
    "causal.hops",
)

GAUGES = ("nodes.alive", "nodes.total")

HISTOGRAMS = {
    "workload.latency": LATENCY_BOUNDS,
    "causal.hop_latency": HOP_LATENCY_BOUNDS,
    "causal.route_hops": ROUTE_HOP_BOUNDS,
    "shard.batch_size": BATCH_BOUNDS,
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
             duration: float, extra: Optional[dict] = None) -> dict:
    """Wrap a registry snapshot as a ``repro.obs/1`` document."""
    snapshot = {"schema": OBS_SCHEMA, "mode": mode, "name": name,
                "seed": seed, "duration": duration}
    snapshot.update(registry.snapshot())
    if extra:
        snapshot.update(extra)
    return snapshot


def workload_tallies(registry: MetricsRegistry,
                     payloads: Iterable[dict]) -> None:
    """Fold workload observation payloads
    (:meth:`WorkloadObservations.payload
    <repro.eval.workload.WorkloadObservations.payload>`) into the
    ``workload.*`` instruments — the one shape a workload's observations
    leave any process in, in every mode.
    """
    latency = registry.histogram("workload.latency")
    for payload in payloads:
        records = payload["records"]
        registry.counter("workload.sent").inc(len(payload["sent"]))
        registry.counter("workload.delivered").inc(len(records))
        registry.counter("workload.duplicates").inc(payload["duplicates"])
        registry.counter("workload.skipped").inc(payload["skipped"])
        # Delivery records end in their latency; a kv record carries
        # (issued_at, completed_at) at [5:7] instead.
        latency.observe_many(record[6] - record[5] if len(record) > 3
                             else record[2] for record in records)


def fill_sim(registry: MetricsRegistry, experiment: Any, *,
             events_processed: int, owned_nodes: Iterable[Any],
             causal: Optional[Any] = None,
             cross_shard_packets: int = 0) -> None:
    """Fold one (shard-local or single-process) sim run into *registry*.

    In a sharded run each worker calls this on its private registry with
    its owned nodes and corrected event count; the parent merges the
    shipped snapshots, and the additive semantics line up with the
    metrics-dict merge formulas.
    """
    counter = registry.counter
    stats = experiment.emulator.stats
    counter("engine.events_processed").inc(events_processed)
    counter("net.packets_sent").inc(stats.packets_sent)
    counter("net.packets_delivered").inc(stats.packets_delivered)
    counter("net.packets_dropped").inc(stats.packets_dropped)
    counter("net.bytes_delivered").inc(stats.bytes_delivered)

    workload_tallies(registry, (
        compiled.shard_payload() for compiled in experiment.compiled_models
        if hasattr(compiled, "observations")))

    tracer = experiment.tracer
    counter("trace.records").inc(sum(tracer.counts.values()))
    counter("trace.dropped").inc(tracer.dropped)
    counter("shard.cross_shard_packets").inc(cross_shard_packets)

    owned = list(owned_nodes)
    registry.gauge("nodes.alive").add(sum(node.alive for node in owned))
    registry.gauge("nodes.total").add(len(owned))

    if causal is not None:
        causal.finish(registry)


def fill_live(registry: MetricsRegistry, per_node: Iterable[dict], *,
              nodes_total: int, nodes_alive: int) -> list[dict]:
    """Fold live per-node reports into *registry*.

    Returns the merged, time-sorted causal ``route_hop`` records so the
    coordinator can write the ``repro.trace/1`` artifact.
    """
    counter = registry.counter
    hop_latency = registry.histogram("causal.hop_latency")
    hop_records: list[dict] = []
    per_node = list(per_node)
    workload_tallies(registry, (report["workload"] for report in per_node))
    for report in per_node:
        socket_stats = report.get("socket") or {}
        counter("engine.events_processed").inc(
            int(report.get("events_processed", 0)))
        counter("net.packets_sent").inc(
            int(socket_stats.get("frames_sent", 0)))
        counter("net.packets_delivered").inc(
            int(socket_stats.get("frames_received", 0)))
        counter("net.packets_dropped").inc(
            int(socket_stats.get("send_drops", 0))
            + int(socket_stats.get("fault_drops", 0)))
        counter("net.bytes_delivered").inc(
            int(socket_stats.get("bytes_received", 0)))
        counter("errors.callback_errors").inc(
            int(report.get("callback_error_count", 0)))
        counter("errors.decode_errors").inc(
            int(socket_stats.get("decode_errors", 0)))
        counter("errors.reassembly_timeouts").inc(
            int(socket_stats.get("reassembly_timeouts", 0)))
        counter("errors.fault_drops").inc(
            int(socket_stats.get("fault_drops", 0)))
        trace_stats = report.get("trace") or {}
        counter("trace.records").inc(int(trace_stats.get("records", 0)))
        counter("trace.dropped").inc(int(trace_stats.get("dropped", 0)))
        causal_stats = report.get("causal") or {}
        counter("causal.traces").inc(int(causal_stats.get("traces", 0)))
        counter("causal.hops").inc(int(causal_stats.get("hops", 0)))
        for record in causal_stats.get("records", ()):
            hop_latency.observe(record["data"]["latency"])
            hop_records.append(record)
    registry.gauge("nodes.alive").set(nodes_alive)
    registry.gauge("nodes.total").set(nodes_total)

    hop_records.sort(key=lambda record: record["t"])
    max_hop: dict[int, int] = {}
    for record in hop_records:
        data = record["data"]
        if data["hop"] > max_hop.get(data["trace_id"], -1):
            max_hop[data["trace_id"]] = data["hop"]
    route_hops = registry.histogram("causal.route_hops")
    for hop in max_hop.values():
        route_hops.observe(hop + 1)
    return hop_records
