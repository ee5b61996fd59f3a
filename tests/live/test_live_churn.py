"""Live fault injection end-to-end: real SIGKILLs, supervised respawns,
partition and degrade rules in real sockets' fault tables.

The in-test shapes stay small (4-5 nodes, a few seconds); the CI
live-churn-smoke job runs the 8-node version via scripts/run_live.py.
"""

from __future__ import annotations

import socket

import pytest

import repro
from repro.eval.invariants import check_invariants
from repro.eval.library import FAST_FAILURE, resolve_protocol
from repro.eval.scenario import (ChurnModel, CrashModel, DegradeModel,
                                 PartitionModel, ScenarioSpec, WorkloadModel)
from repro.live import LiveCluster, LiveClusterConfig, LiveClusterError

pytestmark = pytest.mark.live


def _spec(*models, nodes, duration, seed, **fields):
    """A spec run at ``time_scale`` 1: joins 0.1 s apart, then *models*."""
    return ScenarioSpec(name="live-churn", agents=resolve_protocol("chord"),
                        num_nodes=nodes, duration=duration, seed=seed,
                        models=(ChurnModel(join="staggered",
                                           join_spacing=0.1),) + models,
                        **fields)


def test_kill_and_supervised_respawn_recovers():
    """The acceptance shape: a mid-run SIGKILL, a supervised respawn through
    the restart-epoch machinery, and routing that recovers after the settle
    window.

    Sized so the post-fault statistic means something: the window opens 1 s
    after the respawn at t = 4 s (with its timers on the spec clock, Chord
    mis-forwards around a rejoined node for under a second, until successor
    repair catches up) and scores 24 probes at 24 distinct instants, not
    one instant's five."""
    config = LiveClusterConfig(
        _spec(WorkloadModel(kind="route", source=-1, start=1.5, packets=46,
                            gap=0.16),
              CrashModel(at=3.0, victims=(2,), recover_after=1.0),
              nodes=5, duration=9.0, seed=7, post_fault_settle=1.0),
        time_scale=1.0, base_port=49500)
    outcome = LiveCluster(config).run()
    metrics = outcome.metrics

    assert metrics["nodes.killed"] == 1.0
    assert metrics["nodes.respawns"] == 1.0
    assert metrics["nodes.down"] == 0.0

    victim = outcome.per_node[2]
    assert victim["incarnation"] == 1
    # The transport restart epoch tracked the process incarnation, so the
    # reborn node's reliable traffic was not mistaken for the dead one's.
    assert victim["epoch"] == 1
    assert victim["state"] == "joined"

    # Probes scheduled into the victim's outage window are skipped, not
    # silently lost; the accounting sees them.
    assert metrics["workload.skipped"] >= 0.0
    # After the respawn plus the settle window, routing must work again —
    # judged on a sample large enough to say so.
    assert metrics["workload.post_fault_probes"] >= 10.0
    assert metrics["workload.post_fault_success_ratio"] >= 0.8
    assert metrics["nodes.callback_errors"] == 0.0


def test_kill_without_respawn_leaves_the_node_accounted_down():
    config = LiveClusterConfig(
        _spec(WorkloadModel(kind="route", source=-1, start=1.4, packets=16,
                            gap=0.25),
              CrashModel(at=2.5, victims=(3,)),
              nodes=4, duration=5.5, seed=11),
        time_scale=1.0, base_port=49520)
    outcome = LiveCluster(config).run()
    metrics = outcome.metrics

    assert metrics["nodes.killed"] == 1.0
    assert metrics["nodes.respawns"] == 0.0
    assert metrics["nodes.down"] == 1.0
    assert metrics["nodes.joined"] == 3.0
    down = outcome.per_node[3]
    assert down["state"] == "down"
    assert down["models"] == {}
    # Some of the survivors' workload still routes (the dead node's keys
    # fail until the ring heals; this asserts accounting, not recovery).
    assert metrics["workload.success_ratio"] >= 0.2
    # Ring health is judged over the survivors, not the placeholder report.
    assert "ring.correct_successor_fraction" in metrics


def test_failure_detection_fires_on_the_spec_clock():
    """``FAST_FAILURE`` declares a silent peer dead after 10 spec seconds,
    one wall second at ``time_scale`` 0.1: the survivors of a kill with no
    respawn repair their ring well before the horizon, as in simulation.  A
    detector on wall seconds would not fire inside this 6-second run."""
    spec = _spec(WorkloadModel(kind="route", source=-1, start=5.0,
                               packets=20, gap=2.0),
                 CrashModel(at=15.0, victims=(2,)),
                 nodes=4, duration=60.0, seed=11,
                 failure_config=FAST_FAILURE)
    outcome = LiveCluster(LiveClusterConfig(spec, time_scale=0.1,
                                            base_port=49600)).run()
    metrics = outcome.metrics
    assert metrics["nodes.down"] == 1.0
    assert metrics["ring.correct_successor_fraction"] == 1.0
    assert spec.run().metrics["ring.correct_successor_fraction"] == 1.0
    assert metrics["nodes.callback_errors"] == 0.0


def test_partition_and_degrade_reach_real_sockets():
    """A spec's partition and degrade models, at their spec instants on a
    ``time_scale`` clock, go through the coordinator into every node's
    socket fault table."""
    spec = ScenarioSpec(
        name="partition-degrade-live", agents=resolve_protocol("chord"),
        num_nodes=4, duration=60.0, seed=3,
        models=(ChurnModel(join="staggered", join_spacing=1.2),
                PartitionModel(at=20.0, heal_after=10.0,
                               groups=((0, 1), (2, 3))),
                DegradeModel(at=30.0, restore_after=15.0, hosts=(3,),
                             bandwidth_factor=0.5, latency_factor=3.0),
                WorkloadModel(kind="route", source=-1, start=15.0,
                              packets=16, gap=2.5)))
    outcome = repro.run(spec, mode="live", base_port=49580,
                        time_scale=5.0 / 60.0)
    metrics = outcome.metrics
    assert metrics["socket.fault_drops"] > 0
    assert check_invariants(outcome) == []
    assert metrics["nodes.down"] == 0.0
    assert metrics["nodes.killed"] == 0.0


def test_startup_timeout_names_the_stuck_nodes():
    # Spawned (not forked) workers re-import the package, which takes far
    # longer than the deliberately absurd 50 ms barrier window.
    config = LiveClusterConfig(
        _spec(WorkloadModel(kind="route"), nodes=3, duration=4.0, seed=1),
        base_port=49540, start_method="spawn", startup_timeout=0.05)
    with pytest.raises(LiveClusterError,
                       match="never reached the start barrier"):
        LiveCluster(config).run()


def test_port_conflict_is_a_boot_failure_naming_the_node():
    squatter = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    squatter.bind(("127.0.0.1", 49561))   # node index 1's port
    try:
        config = LiveClusterConfig(
            _spec(WorkloadModel(kind="route"), nodes=3, duration=4.0,
                  seed=1),
            base_port=49560)
        with pytest.raises(LiveClusterError,
                           match="failed to start — node 2"):
            LiveCluster(config).run()
    finally:
        squatter.close()
