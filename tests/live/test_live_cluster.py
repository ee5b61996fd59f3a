"""End-to-end live deployment: real processes, real sockets, same spec.

The in-test cluster is kept small (4 nodes, a few seconds) so the tier-1
suite stays fast; the CI live-smoke job and scripts/run_live.py exercise the
8- and 32-node shapes.
"""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.eval.library import RegistryStack, resolve_protocol
from repro.eval.scenario import (ChurnModel, ScenarioError, ScenarioSpec,
                                 WorkloadModel)
from repro.live import LiveCluster, LiveClusterConfig, LiveClusterError

pytestmark = pytest.mark.live


def _spec(*models, nodes=4, duration=4.0, seed=5, protocol="chord"):
    """A spec in wall seconds: joins 0.1 s apart, then *models*."""
    return ScenarioSpec(name="live-test", agents=resolve_protocol(protocol),
                        num_nodes=nodes, duration=duration, seed=seed,
                        models=(ChurnModel(join="staggered",
                                           join_spacing=0.1),) + models)


def test_config_validation():
    route = WorkloadModel(kind="route", source=-1, packets=8)
    with pytest.raises(LiveClusterError, match="at least one node"):
        LiveClusterConfig(_spec(route, nodes=0))
    with pytest.raises(LiveClusterError, match="time_scale"):
        LiveClusterConfig(_spec(route), time_scale=0.0)
    with pytest.raises(ScenarioError, match="no WorkloadModel"):
        LiveClusterConfig(_spec())
    with pytest.raises(ScenarioError, match="unknown workload"):
        LiveClusterConfig(_spec(WorkloadModel(kind="teleport"))).draw()
    with pytest.raises(ScenarioError, match="keys >= 1"):
        LiveClusterConfig(_spec(WorkloadModel(kind="kv", keys=0))).draw()
    config = LiveClusterConfig(_spec(route, nodes=3), time_scale=1.0)
    ops = config.draw()[0].ops
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

    config = LiveClusterConfig(_spec(WorkloadModel(kind="route"), nodes=2))
    down = LiveCluster(config)._down_report(0, {"incarnation": 1})
    network = SocketUdpNetwork(1, config.endpoints(), WireCodec({}))
    assert down["socket"].keys() == network.stats().keys()
    assert down["transport"].keys() \
        <= {field.name for field in fields(TransportStats)}
    assert not any(down["socket"].values()) \
        and not any(down["transport"].values())


def test_unknown_protocol_fails_before_spawning_processes():
    spec = replace(_spec(WorkloadModel(kind="route")),
                   agents=RegistryStack("chrod"))
    with pytest.raises(ScenarioError, match="no live deployment"):
        LiveCluster(LiveClusterConfig(spec)).run()


def test_four_node_chord_cluster_routes_over_real_sockets():
    config = LiveClusterConfig(
        _spec(WorkloadModel(kind="route", source=-1, start=1.4, packets=16,
                            gap=0.15)),
        time_scale=1.0, base_port=49140)
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
    config = LiveClusterConfig(
        _spec(WorkloadModel(kind="kv", start=1.4, packets=24, gap=0.15),
              duration=5.0, seed=7),
        time_scale=1.0, base_port=49180)
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
    # Topics at 1.2 s, subscriptions 0.25 s apart, publications from 4.45 s.
    config = LiveClusterConfig(
        _spec(WorkloadModel(kind="pubsub", source=-1, start=1.2, packets=12,
                            gap=0.1, topics=3),
              duration=6.0, seed=7, protocol="scribe-pastry"),
        time_scale=1.0, base_port=49200)
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
    # 80 simulated seconds in 5 wall seconds.
    outcome = repro.run(spec, mode="live", base_port=49220,
                        time_scale=5.0 / 80.0)
    metrics = outcome.metrics
    assert metrics["workload.sent"] == 16.0
    assert metrics["workload.quorum_success"] >= 0.9
    assert metrics["workload.phantom_reads"] == 0.0
    # The live config inherited the spec's quorum knobs and population.
    assert outcome.result.name == "live-chord-kv"
    assert metrics["nodes.count"] == 4.0
