#!/usr/bin/env python3
"""Deploy the bundled Chord specification over real sockets on localhost.

The same registry-compiled agent that examples/chord_dht.py runs in
simulation is booted here as 8 OS processes exchanging real UDP datagrams:
a staggered join wave builds the ring, then the same ``WorkloadModel`` a
simulated scenario would carry drives lookups for random keys from random
nodes: every process draws the identical schedule, issues its own share,
and the coordinator scores the pooled observations with the model's own
scorer — the formula the scenario runner uses.

Run with:  python examples/live_chord.py
"""

from __future__ import annotations

from repro.eval.workload import WorkloadModel
from repro.live import LiveCluster, LiveClusterConfig

NUM_NODES = 8


def main() -> None:
    config = LiveClusterConfig(
        nodes=NUM_NODES,
        protocol="chord",
        # Lookups from a random node each; the live window replaces the
        # model's start/gap timeline, every other knob carries over.
        workload=WorkloadModel(kind="route", source=-1,
                               packets=5 * NUM_NODES),
        duration=6.0,          # join wave + settle + lookup window, in wall s
        join_spacing=0.2,
        base_port=47300,
    )
    print(f"booting {config.nodes} chord processes on "
          f"{config.host}:{config.base_port}-"
          f"{config.base_port + config.nodes - 1} …")
    outcome = LiveCluster(config).run()

    metrics = outcome.metrics
    print("\nper node (address / FSM state / lookups sent / delivered-here):")
    for report in outcome.per_node:
        observed = report["workload"]   # this process's observation payload
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
