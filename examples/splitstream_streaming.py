#!/usr/bin/env python3
"""Stream data over SplitStream/Scribe/Pastry and report per-node bandwidth.

This is a miniature version of the paper's Figure-12 experiment: build a
SplitStream forest, stream fixed-size packets from one source, and report the
average bandwidth each receiver saw — once with the Pastry location cache kept
forever and once with a short cache lifetime.  Each run is one
``ScenarioSpec``: a ``Stack`` value whose ``params`` row sets Pastry's cache
lifetime, a staggered join, a ``GroupModel`` that builds the forest and a
multicast ``WorkloadModel`` that streams into it.

Run with:  python examples/splitstream_streaming.py
"""

from __future__ import annotations

from repro.eval import ChurnModel, GroupModel, ScenarioSpec, Stack, WorkloadModel

NUM_NODES = 25
SOURCE = 1
GROUP = 99
RATE_BPS = 100_000
PACKET_BYTES = 1000
STREAM_SECONDS = 30
CONVERGENCE = 100.0


def run(cache_lifetime: float) -> float:
    packets_per_second = RATE_BPS / (PACKET_BYTES * 8)
    stream_start = CONVERGENCE + 35.0
    spec = ScenarioSpec(
        name=f"splitstream-cache-{cache_lifetime}",
        agents=Stack("splitstream", params=(
            ("pastry", "cache_lifetime", cache_lifetime),)),
        num_nodes=NUM_NODES,
        duration=stream_start + STREAM_SECONDS + 10.0,
        seed=5,
        models=(ChurnModel(join="staggered", join_spacing=0.2),
                GroupModel(group=GROUP, source=SOURCE, at=CONVERGENCE),
                WorkloadModel(kind="multicast", source=SOURCE, group=GROUP,
                              start=stream_start,
                              packets=int(STREAM_SECONDS * packets_per_second),
                              gap=1.0 / packets_per_second,
                              packet_bytes=PACKET_BYTES)),
    )
    result = spec.run()
    source = result.experiment.nodes[SOURCE].address
    records = result.experiment.compiled_models[-1].observations.records
    received = sum(1 for receiver, _seqno, _latency in records
                   if receiver != source)
    average = received * PACKET_BYTES * 8 / STREAM_SECONDS / (NUM_NODES - 1)
    label = "no eviction" if cache_lifetime <= 0 else f"{cache_lifetime:.0f}s lifetime"
    print(f"SplitStream ({label}): average {average / 1000:.1f} kbps per node "
          f"of a {RATE_BPS / 1000:.0f} kbps source "
          f"({result.metrics['workload.sent']:.0f} packets sent)")
    return average


def main() -> None:
    keep = run(cache_lifetime=0.0)
    evict = run(cache_lifetime=1.0)
    print(f"location cache disabled eviction vs 1s lifetime: "
          f"{keep / 1000:.1f} kbps vs {evict / 1000:.1f} kbps")


if __name__ == "__main__":
    main()
