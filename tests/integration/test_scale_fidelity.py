"""Large-N fidelity of the generated overlays over the causal link physics.

A crash-free 200-node Chord ring converges after its join wave and stays
converged: every route probe arrives, no packet is dropped and no peer is
declared failed.  Link queues are evaluated in arrival order
(docs/PERFORMANCE.md, "The data path"); a regression in the link physics
shows up here as lost probes, dropped packets or failure declarations
nobody earned.  Chord's maintenance is best-effort, so a maintenance
datagram the links drop is never retransmitted: the zero-drop assertion
covers it.

A 100-node Scribe-over-Pastry population builds one group tree and
multicasts a short burst to every member; its event count is pinned
exactly, so a change that alters what Pastry's join wave or Scribe's tree
building simulates shows up here.  It was re-pinned once, 90 521 -> 41 072,
when Pastry's full-membership gossip gave way to prefix routing over a
table and a leaf set.
"""

from __future__ import annotations

from repro.eval.scenario import (ChurnModel, GroupModel, ScenarioSpec,
                                 Stack, WorkloadModel)
from repro.runtime.failure import FailureDetectorConfig

FAILURE_CONFIG = FailureDetectorConfig(failure_timeout=10.0,
                                       heartbeat_timeout=4.0,
                                       check_interval=1.0)


def test_200_node_chord_routes_everything_and_suspects_nobody():
    """200 Chord nodes over 120 simulated seconds (≈ 11 s of wall): joins
    over the first 30 %, route probes over the last quarter."""
    nodes, duration, probe_gap = 200, 120.0, 0.25
    result = ScenarioSpec(
        name="scale-fidelity-chord",
        agents=Stack("chord"),
        num_nodes=nodes,
        duration=duration,
        seed=1,
        failure_config=FAILURE_CONFIG,
        models=(ChurnModel(join="staggered",
                           join_spacing=duration * 0.3 / nodes,
                           churn_fraction=0.0),
                WorkloadModel(kind="route", source=-1, start=duration * 0.75,
                              packets=int(duration * 0.2 / probe_gap),
                              gap=probe_gap)),
    ).run()
    metrics = result.metrics
    assert metrics["workload.success_ratio"] >= 0.99
    assert metrics["net.packets_dropped"] == 0
    assert sum(node.failure_detector.stats.failures_declared
               for node in result.experiment.nodes) == 0
    assert metrics["workload.latency_p95"] < 1.0


def test_100_node_scribe_multicast_reaches_every_member():
    """100 Scribe-over-Pastry nodes join 0.05 s apart, every node but the
    source joins group 4040 from 15 s, and the source multicasts five
    packets from 40 s (≈ 8 s of wall).  Every packet reaches all 99 members,
    and the run's event count repeats exactly."""
    nodes, spacing, group = 100, 0.05, 4040
    packets, gap = 5, 0.5
    group_at = nodes * spacing + 10.0
    probe_at = group_at + 25.0
    result = ScenarioSpec(
        name="scale-fidelity-scribe",
        agents=Stack("scribe"),
        num_nodes=nodes,
        duration=probe_at + packets * gap + 15.0,
        seed=1,
        failure_config=FAILURE_CONFIG,
        models=(ChurnModel(join="staggered", join_spacing=spacing),
                GroupModel(group=group, source=1, at=group_at,
                           spacing=spacing),
                WorkloadModel(kind="multicast", source=1, group=group,
                              start=probe_at, packets=packets, gap=gap)),
    ).run()
    metrics = result.metrics
    assert metrics["sim.events_processed"] == 41_072
    assert metrics["workload.deliveries"] == packets * (nodes - 1)
    assert metrics["workload.success_ratio"] == 1.0
