#!/usr/bin/env python3
"""Run the bundled Chord specification and inspect the DHT it builds.

Demonstrates: naming a bundled protocol as a :class:`Stack` value (its
``params`` row sets the fix-fingers period on every node), describing the
run as a declarative :class:`ScenarioSpec` (staggered joins + a sampled
convergence series), and routing application data to the node that owns a
key.

Run with:  python examples/chord_dht.py
"""

from __future__ import annotations

from repro.apps import AppPayload
from repro.eval import (ChurnModel, SampleSeries, ScenarioSpec, Stack,
                        average_correct_route_entries)
from repro.eval.reports import format_series

NUM_NODES = 40


def main() -> None:
    # The whole experiment — population, join schedule, and the Figure-10
    # routing-table snapshot series — as one declarative spec.
    spec = ScenarioSpec(
        name="chord-convergence",
        # A 1-second fix-fingers timer (the fast static setting of Figure 10).
        agents=Stack("chord", params=(("chord", "fix_period", 1.0),)),
        num_nodes=NUM_NODES,
        duration=60.0,
        seed=11,
        models=(ChurnModel(join="staggered", join_spacing=0.25),),
        samples=(SampleSeries(
            "correct_entries", 2.0,
            lambda exp: average_correct_route_entries(exp.nodes, "chord")),),
    )
    result = spec.run()
    print(format_series("Chord convergence (correct finger entries, max 32)",
                        result.series["correct_entries"],
                        x_label="time s", y_label="correct entries"))

    # Route data to the owner of an arbitrary key on the converged overlay.
    experiment = result.experiment
    target = experiment.nodes[7]
    delivered = []
    target.macedon_register_handlers(
        deliver=lambda payload, size, mtype: delivered.append((payload, size)))
    key = target.agent("chord").my_key
    sender = experiment.nodes[23]
    payload = AppPayload(seqno=0, sent_at=experiment.simulator.now,
                         source=sender.address)
    sender.macedon_route(key, payload, 1000)
    experiment.run(10.0)

    print(f"\nrouted 1000 bytes from node {sender.address} to the owner of "
          f"key {key:#010x}")
    print(f"owner {target.address} delivered: {delivered}")
    print(f"node states: {experiment.states()}")


if __name__ == "__main__":
    main()
