"""Large-N fidelity of generated Chord over the causal link physics.

A crash-free 200-node ring converges after its join wave and stays
converged: every route probe arrives, no packet is dropped and no peer is
declared failed.  Link queues are evaluated in arrival order
(docs/PERFORMANCE.md, "The data path"); a regression in the link physics
shows up here as lost probes, dropped packets or failure declarations
nobody earned.  Chord's maintenance is best-effort, so a maintenance
datagram the links drop is never retransmitted: the zero-drop assertion
covers it.
"""

from __future__ import annotations

from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel
from repro.protocols import chord_agent
from repro.runtime.failure import FailureDetectorConfig


def test_200_node_chord_routes_everything_and_suspects_nobody():
    """The ``bench_scale`` Chord spec at two thirds of its length (≈ 11 s of
    wall): joins over the first 30 %, route probes over the last quarter."""
    nodes, duration, probe_gap = 200, 120.0, 0.25
    result = ScenarioSpec(
        name="scale-fidelity-chord",
        agents=lambda: [chord_agent()],
        num_nodes=nodes,
        duration=duration,
        seed=1,
        failure_config=FailureDetectorConfig(failure_timeout=10.0,
                                             heartbeat_timeout=4.0,
                                             check_interval=1.0),
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
