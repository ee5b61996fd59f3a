"""End-to-end live deployment: real processes, real sockets, same spec.

The in-test cluster is kept small (4 nodes, a few seconds) so the tier-1
suite stays fast; the CI live-smoke job and scripts/run_live.py exercise the
8- and 32-node shapes.
"""

from __future__ import annotations

import pytest

from repro.eval.workload import WorkloadModel
from repro.live import LiveCluster, LiveClusterConfig, LiveClusterError

pytestmark = pytest.mark.live


def test_config_validation():
    with pytest.raises(LiveClusterError, match="at least one node"):
        LiveClusterConfig(nodes=0)
    with pytest.raises(LiveClusterError, match="unknown workload"):
        LiveClusterConfig(workload=WorkloadModel(kind="teleport"))
    with pytest.raises(LiveClusterError, match="must be a WorkloadModel"):
        LiveClusterConfig(workload="route")
    with pytest.raises(LiveClusterError, match="keys >= 1"):
        LiveClusterConfig(workload=WorkloadModel(kind="kv", keys=0))
    with pytest.raises(LiveClusterError, match="no workload window"):
        LiveClusterConfig(nodes=16, duration=2.0, join_spacing=0.5)
    config = LiveClusterConfig(
        nodes=3, duration=5.0,
        workload=WorkloadModel(kind="route", source=-1, packets=8))
    assert config.workload_start == pytest.approx(3 * 0.15 + 1.0)
    ops = config.plan(2 ** 32).ops
    assert [op.args[0] for op in ops] == list(range(8))
    assert {op.node for op in ops} <= {0, 1, 2}
    assert sorted(config.endpoints()) == [1, 2, 3]


def test_down_report_has_the_keys_of_a_live_report():
    """A node that stayed down contributes zeros under exactly the counter
    names a running node reports (the hand-copied list once lacked
    ``traced_frames``)."""
    from dataclasses import fields

    from repro.runtime.messages import WireCodec
    from repro.transport.base import TransportStats
    from repro.transport.udp import SocketUdpNetwork

    config = LiveClusterConfig(nodes=2)
    down = LiveCluster(config)._down_report(0, {"incarnation": 1})
    network = SocketUdpNetwork(1, config.endpoints(), WireCodec({}))
    assert down["socket"].keys() == network.stats().keys()
    assert down["transport"].keys() \
        <= {field.name for field in fields(TransportStats)}
    assert not any(down["socket"].values()) \
        and not any(down["transport"].values())


def test_unknown_protocol_fails_before_spawning_processes():
    with pytest.raises(Exception, match="chrod|no specification"):
        LiveCluster(LiveClusterConfig(nodes=2, duration=5.0,
                                      protocol="chrod")).run()


def test_four_node_chord_cluster_routes_over_real_sockets():
    config = LiveClusterConfig(nodes=4, duration=4.0, join_spacing=0.1,
                               settle=0.8, seed=5,
                               workload=WorkloadModel(kind="route", source=-1,
                                                      packets=16),
                               base_port=49140)
    outcome = LiveCluster(config).run()
    metrics = outcome.metrics

    assert metrics["nodes.joined"] == 4.0
    assert metrics["workload.sent"] == 16.0
    # Localhost, converged ring: the workload must essentially all route.
    assert metrics["workload.success_ratio"] >= 0.9
    assert metrics["ring.correct_successor_fraction"] == 1.0
    assert metrics["nodes.callback_errors"] == 0.0
    assert metrics["socket.decode_errors"] == 0.0
    # Real bytes moved between processes.
    assert metrics["transport.messages_sent"] > 0
    assert len(outcome.per_node) == 4
    for report in outcome.per_node:
        assert report["state"] == "joined"
        assert report["socket"]["bytes_sent"] > 0
    # Deliveries carried wall-clock latencies.
    assert metrics["workload.latency_mean"] > 0.0
    assert metrics["workload.latency_p95"] >= metrics["workload.latency_mean"] * 0.1


def test_live_kv_quorum_over_real_sockets():
    config = LiveClusterConfig(nodes=4, duration=5.0, join_spacing=0.1,
                               settle=0.8,
                               workload=WorkloadModel(kind="kv", packets=24),
                               seed=7, base_port=49180)
    outcome = LiveCluster(config).run()
    metrics = outcome.metrics
    assert metrics["nodes.joined"] == 4.0
    assert metrics["workload.sent"] == 24.0
    assert metrics["workload.quorum_success"] >= 0.9
    assert metrics["workload.phantom_reads"] == 0.0
    assert metrics["workload.puts"] + metrics["workload.gets"] \
        == metrics["workload.completed"]
    assert metrics["workload.replica_coverage"] >= 0.9
    assert metrics["nodes.callback_errors"] == 0.0


def test_live_pubsub_full_coverage():
    config = LiveClusterConfig(nodes=4, duration=6.0, join_spacing=0.1,
                               settle=1.2,
                               workload=WorkloadModel(kind="pubsub", source=-1,
                                                      packets=12, topics=3),
                               protocol="scribe", seed=7, base_port=49200)
    outcome = LiveCluster(config).run()
    metrics = outcome.metrics
    assert metrics["workload.sent"] == 12.0
    # Everyone subscribes to every topic; the publisher never self-delivers.
    assert metrics["workload.expected"] == 36.0
    assert metrics["workload.coverage"] >= 0.9
    assert metrics["workload.duplicates"] == 0.0


def test_same_kv_spec_runs_live_via_facade():
    """The acceptance shape: the simulation KV ScenarioSpec, unmodified,
    through ``repro.run(spec, mode="live")``."""
    import repro
    from repro.eval.library import resolve_protocol
    from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel

    spec = ScenarioSpec(
        name="facade-kv-live",
        agents=resolve_protocol("chord"),
        num_nodes=4,
        duration=80.0,
        seed=5,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="kv", start=40.0, packets=16, gap=1.0,
                              keys=16, read_fraction=0.5)),
    )
    outcome = repro.run(spec, mode="live", base_port=49220,
                        join_spacing=0.1, settle=0.8, duration=5.0)
    metrics = outcome.metrics
    assert metrics["workload.sent"] == 16.0
    assert metrics["workload.quorum_success"] >= 0.9
    assert metrics["workload.phantom_reads"] == 0.0
    # The live config inherited the spec's quorum knobs and population.
    assert outcome.result.name == "live-chord-kv"
    assert metrics["nodes.count"] == 4.0
