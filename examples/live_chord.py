#!/usr/bin/env python3
"""Deploy the bundled Chord specification over real sockets on localhost.

The same registry-compiled agent that examples/chord_dht.py runs in
simulation is booted here as 8 OS processes exchanging real UDP datagrams:
the ``ScenarioSpec`` below — a staggered join wave, then lookups for random
keys from random nodes — runs as it would in simulation, a tenth of a wall
second to the simulated second: every process draws the spec's schedule,
issues its own share, and the coordinator scores the pooled observations
with the scenario runner's own scorer into the same ``ScenarioResult``.

Run with:  python examples/live_chord.py
"""

from __future__ import annotations

from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel
from repro.live import LiveCluster, LiveClusterConfig

NUM_NODES = 8


def main() -> None:
    spec = ScenarioSpec(
        name="live-chord", agents=resolve_protocol("chord"),
        num_nodes=NUM_NODES, duration=60.0, seed=1,
        models=(ChurnModel(join="staggered", join_spacing=2.0),
                # Lookups from a random node each, once the ring has formed.
                WorkloadModel(kind="route", source=-1, start=30.0,
                              packets=5 * NUM_NODES, gap=0.7)))
    # 60 simulated seconds in 6 wall seconds.
    config = LiveClusterConfig(spec, time_scale=0.1, base_port=47300)
    print(f"booting {NUM_NODES} chord processes on "
          f"{config.host}:{config.base_port}-"
          f"{config.base_port + NUM_NODES - 1} …")
    outcome = LiveCluster(config).run()

    metrics = outcome.metrics
    print("\nper node (address / FSM state / lookups sent / delivered-here):")
    for report in outcome.per_node:
        # This process's observation payload, under the workload's label.
        observed = report["models"]["workload"]
        print(f"  node {report['address']:>2}  {report['state']:<8} "
              f"sent={len(observed['sent']):<3} "
              f"delivered={len(observed['records']):<3} "
              f"wire={report['socket']['bytes_sent']}B out")

    print(f"\nlookup success ratio : "
          f"{metrics['workload.success_ratio']:.3f} "
          f"({metrics['workload.deliveries']:.0f}/"
          f"{metrics['workload.sent']:.0f})")
    print(f"lookup latency       : mean "
          f"{metrics['workload.latency_mean'] * 1000:.2f} ms, p95 "
          f"{metrics['workload.latency_p95'] * 1000:.2f} ms (wall clock)")
    print(f"ring convergence     : "
          f"{metrics['ring.correct_successor_fraction']:.2f} "
          f"of successor pointers globally correct")
    print(f"transport traffic    : "
          f"{metrics['transport.messages_sent']:.0f} protocol messages, "
          f"{metrics['transport.retransmissions']:.0f} retransmissions")


if __name__ == "__main__":
    main()
