#!/usr/bin/env python3
"""Compare several overlays under one identical workload.

The point of MACEDON's shared runtime and generic API is fair comparison:
the exact same application (a multicast latency probe) runs over RandTree,
Overcast, NICE, Scribe/Pastry, and Scribe/Chord, and the same metrics are
extracted for each — latency stretch, mean overlay latency, and link stress.

Run with:  python examples/overlay_comparison.py
"""

from __future__ import annotations

from repro.eval import (
    ChurnModel,
    GroupModel,
    ScenarioSpec,
    WorkloadModel,
    link_stress,
    mean,
    relative_delay_penalty,
    stretch_samples,
)
from repro.eval.reports import format_table
from repro.protocols import nice_agent, overcast_agent, randtree_agent, scribe_stack

NUM_NODES = 24
GROUP = 1


def evaluate(name: str, stack) -> tuple[str, float, float, float]:
    # Staggered joins, then (for group-based overlays; tree overlays ignore
    # it) a session every other node joins, then a multicast probe burst.
    spec = ScenarioSpec(
        name=name, agents=stack, num_nodes=NUM_NODES, seed=3,
        duration=165.0 + 4 * 0.5 + 20.0,
        models=(ChurnModel(join="staggered", join_spacing=0.2),
                GroupModel(group=GROUP, source=0, at=120.0, spacing=0.2),
                WorkloadModel(kind="multicast", source=0, group=GROUP,
                              start=165.0, packets=4)))
    experiment = spec.run().experiment
    source = experiment.nodes[0]
    per_receiver = experiment.compiled_models[-1].observations.per_receiver
    latencies = {address: mean(values)
                 for address, values in per_receiver.items()
                 if address != source.address}
    samples = stretch_samples(experiment.emulator, source.address, latencies)
    rdp = relative_delay_penalty(samples)
    latency_ms = mean(list(latencies.values())) * 1000
    stress = link_stress(experiment.emulator)["max"]
    return name, rdp, latency_ms, stress


def main() -> None:
    results = [
        evaluate("randtree", [randtree_agent()]),
        evaluate("overcast", [overcast_agent()]),
        evaluate("nice", [nice_agent()]),
        evaluate("scribe/pastry", scribe_stack(base="pastry")),
        evaluate("scribe/chord", scribe_stack(base="chord")),
    ]
    rows = [(name, f"{rdp:.2f}", f"{latency:.1f}", f"{stress:.0f}")
            for name, rdp, latency, stress in results]
    print(format_table(["overlay", "mean stretch (RDP)", "mean latency ms",
                        "max link stress"], rows,
                       title=f"Overlay comparison, {NUM_NODES} nodes, identical workload"))


if __name__ == "__main__":
    main()
