"""Figure 12: SplitStream per-node average bandwidth for two cache policies.

The paper builds a 300-node SplitStream forest over Scribe/Pastry, streams
1000-byte packets at 600 Kbps from one source, and plots per-node average
received bandwidth over time for two Pastry location-cache policies: no cache
eviction (≈580 Kbps sustained) versus a short cache lifetime (≈500 Kbps — the
re-resolution traffic and multi-hop detours eat into goodput).

Scaled down here (fewer nodes, lower rate, shorter run); the assertions check
the shape: both configurations deliver most of the source rate, and the
no-eviction policy delivers at least as much as the short-lifetime policy.
Each policy is one :class:`ScenarioSpec`: ``configure`` sets the cache
lifetime, a :class:`GroupModel` builds the forest and a multicast
:class:`WorkloadModel` streams into it.

``cache_lifetime`` does not move this figure today: both policies deliver
the same bandwidth, because the bundled Pastry settles into full membership
and every route is one overlay hop, so there is no detour for an evicted
cache entry to cause.  The ordering becomes a real test once Pastry routes
by prefix table and leaf set (ROADMAP direction 2(a)).
"""

from __future__ import annotations

from repro.eval import ChurnModel, GroupModel, ScenarioSpec, WorkloadModel, mean
from repro.eval.reports import format_series
from repro.protocols import splitstream_stack

NUM_NODES = 40
SOURCE = 1
RATE_BPS = 120_000          # scaled from the paper's 600 Kbps
PACKET_BYTES = 1000
PACKETS_PER_SECOND = RATE_BPS // (PACKET_BYTES * 8)     # 15
GAP = 1.0 / PACKETS_PER_SECOND
CONVERGENCE = 120.0
STREAM_START = CONVERGENCE + 50.0
STREAM_SECONDS = 60
BUCKET = 10.0
GROUP = 4242


def bandwidth_series(records, source_address: int) -> list[tuple[float, float]]:
    """Average received bandwidth per receiver (bps) in each ``BUCKET`` of
    the stream.  Packet *seqno* left the source ``seqno * GAP`` seconds into
    the stream, so its arrival is that plus the recorded latency."""
    received = [0] * int(STREAM_SECONDS // BUCKET)
    for receiver, seqno, latency in records:
        bucket = int((seqno * GAP + latency) // BUCKET)
        if receiver != source_address and bucket < len(received):
            received[bucket] += PACKET_BYTES
    return [(index * BUCKET, count * 8 / BUCKET / (NUM_NODES - 1))
            for index, count in enumerate(received)]


def run_policy(cache_lifetime: float, seed: int):
    def configure(experiment) -> None:
        for node in experiment.nodes:
            node.agent("pastry").cache_lifetime = cache_lifetime

    spec = ScenarioSpec(
        name=f"fig12-cache-{cache_lifetime}",
        agents=splitstream_stack,
        num_nodes=NUM_NODES,
        duration=STREAM_START + STREAM_SECONDS + 15.0,
        seed=seed,
        configure=configure,
        models=(ChurnModel(join="staggered", join_spacing=0.2),
                GroupModel(group=GROUP, source=SOURCE, at=CONVERGENCE),
                WorkloadModel(kind="multicast", source=SOURCE, group=GROUP,
                              start=STREAM_START,
                              packets=STREAM_SECONDS * PACKETS_PER_SECOND,
                              gap=GAP,
                              packet_bytes=PACKET_BYTES)),
    )
    experiment = spec.run().experiment
    workload = experiment.compiled_models[-1]
    series = bandwidth_series(workload.observations.records,
                              experiment.nodes[SOURCE].address)
    return series, mean([value for _, value in series])


def test_fig12_splitstream_bandwidth_cache_policies(once):
    def run():
        no_eviction = run_policy(cache_lifetime=0.0, seed=121)
        short_lifetime = run_policy(cache_lifetime=1.0, seed=121)
        return no_eviction, short_lifetime

    (series_keep, avg_keep), (series_evict, avg_evict) = once(run)

    print()
    print(format_series("Figure 12 — no cache evictions (bps per node)",
                        series_keep, x_label="time s", y_label="bandwidth bps"))
    print(format_series("Figure 12 — 1 s cache lifetime (bps per node)",
                        series_evict, x_label="time s", y_label="bandwidth bps"))
    print(f"average: no-eviction={avg_keep:.0f} bps, short-lifetime={avg_evict:.0f} bps")

    # Both policies deliver a large fraction of the source rate...
    assert avg_keep > 0.5 * RATE_BPS
    assert avg_evict > 0.3 * RATE_BPS
    # ...and disabling eviction delivers at least as much as a short lifetime
    # (the paper's 580 vs 500 Kbps ordering).
    assert avg_keep >= avg_evict * 0.98
