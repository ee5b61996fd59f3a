"""Section 4.1 claim: Scribe switches DHT substrate with a one-line change.

"the Scribe application-layer multicast protocol can be switched from using
Pastry to Chord by changing a single line in its MACEDON specification."
This benchmark builds Scribe over both substrates from the same specification
(overriding only the ``uses`` header) and verifies multicast delivery works on
both, reporting delivery rate and mean latency side by side.  Both runs are
the same :class:`ScenarioSpec` but for the stack, ``Stack("scribe",
base=...)``: a staggered join, a :class:`GroupModel` and a 10 packets/s
multicast :class:`WorkloadModel`.
"""

from __future__ import annotations

from repro.eval import (ChurnModel, GroupModel, ScenarioSpec, Stack,
                        WorkloadModel, mean)
from repro.eval.reports import format_table

NUM_NODES = 30
GROUP = 77
SOURCE = 1
CONVERGENCE = 100.0
STREAM_START = CONVERGENCE + 45.0


def scribe_spec(base: str, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"scribe-over-{base}",
        agents=Stack("scribe", base=base),
        num_nodes=NUM_NODES,
        duration=STREAM_START + 40.0,
        seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.2),
                GroupModel(group=GROUP, source=SOURCE, at=CONVERGENCE),
                WorkloadModel(kind="multicast", source=SOURCE, group=GROUP,
                              start=STREAM_START, packets=200, gap=0.1)),
    )


def run_over(base: str, seed: int):
    result = scribe_spec(base, seed).run()
    observations = result.experiment.compiled_models[-1].observations
    sent = result.metrics["workload.sent"]
    source = result.experiment.nodes[SOURCE].address
    # A receiver that got nothing has no entry, and counts as 0.
    received = [observations.per_receiver.get(node.address, [])
                for node in result.experiment.nodes if node.address != source]
    delivery = mean([len(latencies) / sent for latencies in received]) \
        if sent else 0.0
    latency = mean([mean(latencies) for latencies in received if latencies])
    return delivery, latency


def test_layering_switch_spec_is_a_value(stack_value):
    assert stack_value(scribe_spec("chord", seed=131)) == (True, None)


def test_scribe_substrate_switch(once):
    def run():
        return run_over("pastry", seed=131), run_over("chord", seed=131)

    (pastry_delivery, pastry_latency), (chord_delivery, chord_latency) = once(run)

    print()
    print(format_table(
        ["substrate", "delivery rate", "mean latency ms"],
        [("pastry", f"{pastry_delivery:.2f}", f"{pastry_latency * 1000:.1f}"),
         ("chord", f"{chord_delivery:.2f}", f"{chord_latency * 1000:.1f}")],
        title="Scribe over two DHT substrates (one-line change)"))

    assert pastry_delivery > 0.9
    assert chord_delivery > 0.9
    assert pastry_latency > 0
    assert chord_latency > 0
