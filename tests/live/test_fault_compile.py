"""Compiling scenario fault models onto the live wall-clock schedule, and
the supervisor verbs that run the compiled rows (no process started)."""

from __future__ import annotations

import heapq
from dataclasses import replace

import pytest

from repro.eval.faults import Fault
from repro.eval.library import resolve_protocol
from repro.eval.scenario import (ChurnModel, CorrelatedCrashModel, CrashModel,
                                 DegradeModel, FlappingPartitionModel,
                                 FlashCrowdModel, PartitionModel,
                                 ScenarioError, ScenarioSpec, WorkloadModel)
from repro.live import (LiveCluster, LiveClusterConfig, LiveClusterError,
                        LiveFaultError, compile_fault_models, fault_horizon,
                        live_runnable)

pytestmark = pytest.mark.live


def _spec(*models, protocol="chord", num_nodes=6, duration=120.0, seed=3):
    return ScenarioSpec(name="compile-test",
                        agents=resolve_protocol(protocol),
                        num_nodes=num_nodes, duration=duration, seed=seed,
                        models=models)


def _config(**overrides):
    defaults = dict(nodes=6, duration=7.0, seed=3)
    defaults.update(overrides)
    return LiveClusterConfig(**defaults)


def _span(row):
    return None if row.until is None else row.until - row.at


def test_churn_compiles_to_kills_inside_the_workload_window():
    config = _config()
    spec = _spec(ChurnModel(churn_fraction=0.4, churn_start=30.0,
                            churn_end=60.0, downtime=8.0))
    faults = compile_fault_models(spec, config)
    assert len(faults) == 2            # 40% of the 5 non-exempt nodes
    for fault in faults:
        assert fault.verb == "crash_node"
        assert fault.args[0] != 0      # the bootstrap is exempt
        # Kill times land inside the rescaled [churn_start, churn_end]
        # window; the rescaled 8 s downtime is floored to a real outage.
        assert config.workload_start <= fault.at <= config.duration
        assert _span(fault) == pytest.approx(1.0)
    assert fault_horizon(faults) == max(f.until for f in faults)


def test_compilation_is_deterministic_per_seed():
    spec = _spec(ChurnModel(churn_fraction=0.4, churn_start=30.0,
                            churn_end=60.0))
    assert compile_fault_models(spec, _config()) \
        == compile_fault_models(spec, _config())
    assert compile_fault_models(spec, _config(seed=9)) \
        != compile_fault_models(spec, _config(seed=9, nodes=8, duration=8.0))


def test_crash_maps_named_victims_and_recovery():
    faults = compile_fault_models(
        _spec(CrashModel(at=60.0, victims=(2, 4), recover_after=30.0)),
        _config())
    assert [f.args for f in faults] == [(2,), (4,)]
    at = faults[0].at
    # t=60 of 120 sim seconds lands mid-window on the live clock.
    assert at == pytest.approx(1.9 + 60.0 * (7.0 - 1.9) / 120.0, abs=1e-3)
    assert all(f.at == at for f in faults)
    # 30 sim seconds rescale above the floor: scaled, not floored.
    assert _span(faults[0]) == pytest.approx(30.0 * 5.1 / 120.0, abs=1e-3)

    permanent = compile_fault_models(
        _spec(CrashModel(at=60.0, victims=(2,))), _config())
    assert permanent[0].until is None
    assert fault_horizon(permanent) == permanent[0].at

    with pytest.raises(LiveFaultError, match="out of range"):
        compile_fault_models(_spec(CrashModel(at=60.0, victims=(17,))),
                             _config())


def test_partition_compiles_groups_but_not_link_cuts():
    faults = compile_fault_models(
        _spec(PartitionModel(at=40.0, groups=((0, 1, 2), (3, 4, 5)),
                             heal_after=2.0)),
        _config())
    (fault,) = faults
    assert fault.verb == "partition"
    assert fault.args == (((0, 1, 2), (3, 4, 5)),)
    assert _span(fault) == pytest.approx(0.5)   # floored heal span

    with pytest.raises(LiveFaultError, match="host groups only"):
        compile_fault_models(
            _spec(PartitionModel(at=40.0, links=((0, 3),))), _config())


def test_flapping_partition_emits_one_cut_per_surviving_cycle():
    faults = compile_fault_models(
        _spec(FlappingPartitionModel(at=30.0, period=20.0, duty=0.5,
                                     cycles=10, groups=((0, 1, 2),))),
        _config())
    # The floored 1 s period fits only 4 of the 10 cycles before the live
    # horizon; later cycles are dropped, not squeezed.
    assert len(faults) == 4
    assert all(f.verb == "partition" for f in faults)
    ats = [f.at for f in faults]
    assert ats == sorted(ats)
    gaps = [b - a for a, b in zip(ats, ats[1:])]
    assert all(gap == pytest.approx(1.0, abs=1e-3) for gap in gaps)
    assert all(_span(f) == pytest.approx(0.5) for f in faults)


def test_degrade_maps_factors_with_caps():
    faults = compile_fault_models(
        _spec(DegradeModel(at=40.0, restore_after=30.0, hosts=(3,),
                           latency_factor=5.0, bandwidth_factor=0.5)),
        _config())
    (fault,) = faults
    assert fault.verb == "degrade_node"
    assert fault.args == (3, 0.5, 5.0)
    (op,) = _sent_ops(fault)
    assert op["targets"] == [4]                  # node index 3's address
    assert op["delay"] == pytest.approx(0.08)    # (5 - 1) * 0.02
    assert op["loss"] == pytest.approx(0.5)      # 1 - bandwidth_factor

    (capped,) = compile_fault_models(
        _spec(DegradeModel(at=40.0, hosts=(3,), latency_factor=100.0,
                           bandwidth_factor=0.01)),
        _config())
    (op,) = _sent_ops(capped)
    assert op["delay"] == pytest.approx(0.25)
    assert op["loss"] == pytest.approx(0.75)

    with pytest.raises(LiveFaultError, match="access links only"):
        compile_fault_models(
            _spec(DegradeModel(at=40.0, links=((0, 1),),
                               bandwidth_factor=0.5)),
            _config())


def _cluster(**overrides) -> LiveCluster:
    """A cluster whose spawns and control sends are recorded, not made."""
    cluster = LiveCluster(_config(**overrides))
    cluster.sent, cluster.spawned = [], []
    cluster._send_control = \
        lambda op, addresses=None: cluster.sent.append((op, addresses))
    cluster._spawn = cluster.spawned.append
    return cluster


def _drain(cluster) -> list:
    """Fire every queued action in order, as ``run`` does; return them."""
    fired = []
    while cluster._actions:
        cluster._now, _, action, args = heapq.heappop(cluster._actions)
        action(*args)
        fired.append((cluster._now, action.__name__, args))
    return fired


def _sent_ops(row) -> list:
    """The fault-table ops a cluster sends to every node for *row*'s verb."""
    cluster = _cluster()
    getattr(cluster, row.verb)(*row.args)
    assert all(addresses is None for _, addresses in cluster.sent)
    return [op for op, _ in cluster.sent]


def test_sim_only_models_raise_with_a_reason():
    with pytest.raises(LiveFaultError, match="emulated topology"):
        compile_fault_models(
            _spec(CorrelatedCrashModel(at=40.0, racks=4)), _config())
    with pytest.raises(LiveFaultError, match="sim-only"):
        compile_fault_models(
            _spec(FlashCrowdModel(core=2, at=30.0, stay=20.0)), _config())
    # Without the mass departure, the live join wave replaces the burst.
    assert compile_fault_models(
        _spec(FlashCrowdModel(core=2, at=30.0)), _config()) == ()


def test_live_runnable_tags():
    workload = WorkloadModel(kind="route", source=-1, start=40.0, packets=8,
                             gap=2.0)
    ok, reason = live_runnable(_spec(workload))
    assert ok and reason is None

    # Agent classes rather than a PROTOCOLS row: nothing names the stack.
    ok, reason = live_runnable(
        replace(_spec(workload), agents=resolve_protocol("chord")()))
    assert not ok and "no live deployment" in reason

    ok, reason = live_runnable(_spec())
    assert not ok and "no WorkloadModel" in reason

    ok, reason = live_runnable(
        _spec(workload, CorrelatedCrashModel(at=40.0, racks=4)))
    assert not ok and "emulated topology" in reason


#: Specs the simulator rejects.  Before both drivers ran the model's own
#: ``draw``, every one of these compiled and ran live.
REJECTED_EVERYWHERE = {
    "zero-bandwidth": DegradeModel(hosts=(3,), bandwidth_factor=0.0),
    "no-op-degrade": DegradeModel(hosts=(3,)),
    "victims-and-fraction": CrashModel(victims=(2,), fraction=0.5),
    "hosts-and-fraction": DegradeModel(hosts=(1,), host_fraction=0.5,
                                       bandwidth_factor=0.5),
    "nothing-to-cut": PartitionModel(),
    "zero-period": FlappingPartitionModel(period=0.0, groups=((0, 1),)),
    "duty-over-one": FlappingPartitionModel(duty=1.5, groups=((0, 1),)),
    "unknown-join": ChurnModel(join="bogus", churn_fraction=0.4),
}


@pytest.mark.parametrize("name", REJECTED_EVERYWHERE)
def test_a_spec_the_simulator_rejects_is_rejected_live_in_the_same_words(name):
    spec = _spec(REJECTED_EVERYWHERE[name])
    with pytest.raises(ScenarioError) as sim:
        spec.build()
    with pytest.raises(LiveFaultError) as live:
        compile_fault_models(spec, _config())
    assert str(live.value) == str(sim.value)


def test_a_negative_instant_is_refused_live_exactly_when_the_simulator_refuses_it():
    workload = WorkloadModel(kind="route", source=-1, start=40.0, packets=8,
                             gap=2.0)
    # ``at`` reaches the drawn rows as written, whatever the rescaling onto
    # the live window would make of it: refused, in the simulator's words.
    spec = _spec(CrashModel(at=-5.0, victims=(2,), recover_after=10.0),
                 workload)
    with pytest.raises(ScenarioError) as sim:
        spec.build()
    assert str(sim.value) == "crash event scheduled -5.0 s in the past"
    with pytest.raises(LiveFaultError) as live:
        compile_fault_models(spec, _config())
    assert str(live.value) == str(sim.value)
    assert live_runnable(spec) == (False, str(sim.value))
    # So does a fault's undo, which no span floor may lift back above zero.
    spec = _spec(CrashModel(at=2.0, victims=(2,), recover_after=-5.0),
                 workload)
    with pytest.raises(ScenarioError) as sim:
        spec.build()
    assert str(sim.value) == "recover event scheduled -3.0 s in the past"
    with pytest.raises(LiveFaultError) as live:
        compile_fault_models(spec, _config())
    assert str(live.value) == str(sim.value)
    # The edges of a churn window do not: the draw opens each victim's window
    # at its join, so the simulator accepts both and live must too.
    for window in ({"churn_start": -30.0, "churn_end": 60.0},
                   {"churn_end": -10.0}):
        spec = _spec(ChurnModel(churn_fraction=0.4, downtime=8.0, **window),
                     workload)
        spec.build()
        kills = compile_fault_models(spec, _config())
        assert len(kills) == 2
        assert all(kill.at >= _config().workload_start for kill in kills)
        assert live_runnable(spec) == (True, None)


def test_negative_victim_index_counts_from_the_end_in_both_modes():
    spec = _spec(CrashModel(at=60.0, victims=(-1,)))
    experiment = spec.build()
    assert [event.node for event in experiment.compiled_models[0].events] \
        == [spec.num_nodes - 1]
    (kill,) = compile_fault_models(spec, _config())
    assert (kill.verb, kill.args, kill.until) \
        == ("crash_node", (_config().nodes - 1,), None)


# ------------------------------------------------------------ supervisor verbs
def test_network_verbs_send_the_ops_and_their_undos_retire_them():
    cluster = _cluster()
    cluster.partition(((0, 1, 2), (3, 4, 5)))
    cluster.degrade_node(1, 0.5, 5.0)
    cluster.degrade_node(2, 1.0, 2.0)
    assert [op for op, _ in cluster.sent] == [
        {"op": "partition", "groups": [[1, 2, 3], [4, 5, 6]]},
        {"op": "degrade", "targets": [2], "delay": 0.08, "loss": 0.5},
        {"op": "degrade", "targets": [3], "delay": 0.02, "loss": 0.0}]
    assert len(cluster._standing) == 3

    cluster.sent.clear()
    cluster.heal_partition()
    cluster.restore_node(1)
    assert [op for op, _ in cluster.sent] == [
        {"op": "heal-partition"}, {"op": "restore", "targets": [2]}]
    # Restoring node 1 leaves node 2's rule standing.
    assert list(cluster._standing.values()) == [
        {"op": "degrade", "targets": [3], "delay": 0.02, "loss": 0.0}]


def test_a_respawn_gets_the_standing_rules_replayed():
    cluster = _cluster()
    cluster.partition(((0, 1), (2, 3, 4, 5)))
    cluster.sent.clear()
    cluster._now = 3.0
    cluster.crash_node(2)
    assert cluster._state[2]["down"]
    cluster._now = 4.0
    cluster.recover_node(2)
    assert _drain(cluster) == [(4.0, "_respawn", (2,)),
                               (4.5, "_replay", (2,)),
                               (5.5, "_replay", (2,))]
    assert cluster.spawned == [2]
    assert cluster.sent == [(cluster._standing["partition"], [3])] * 2
    node = cluster._state[2]
    assert (node["incarnation"], node["restarts"], node["killed"]) == (1, 1, 1)
    assert not node["down"] and not node["pending_respawn"]


def test_crash_and_recover_are_no_ops_where_the_simulator_s_are():
    cluster = _cluster()
    cluster.recover_node(1)              # never crashed: nothing to recover
    cluster.crash_node(1)
    cluster.crash_node(1)                # already dead
    assert cluster._state[1]["killed"] == 1
    cluster.recover_node(1)
    cluster.recover_node(1)              # already recovering
    assert [name for _, name, _ in _drain(cluster)] == ["_respawn"]

    spent = _cluster(restart_budget=0)
    spent.crash_node(1)
    spent.recover_node(1)                # the budget is spent: stays down
    assert spent._actions == [] and spent._state[1]["down"]


def test_a_kill_respawns_after_its_whole_downtime():
    """The backoff cap bounds the stretch a repeat kill adds, never the
    row's own downtime, which ``fault_horizon`` counts in full."""
    from repro.live.cluster import BACKOFF_CAP

    kill = Fault(2.0, "crash_node", (1,), "node 1 killed", 14.0)
    assert 12.0 > BACKOFF_CAP
    for restarts, delay in ((0, 12.0), (1, 12.0 + BACKOFF_CAP)):
        cluster = _cluster()
        cluster._state[1]["restarts"] = restarts
        cluster._now = kill.at
        cluster.crash_node(*kill.args)
        cluster._now = kill.until
        cluster.recover_node(*kill.args)
        assert [(at, action.__name__, args)
                for at, _, action, args in cluster._actions] \
            == [(2.0 + delay, "_respawn", (1,))]
        assert cluster._state[1]["pending_respawn"]
        assert cluster._state[1]["killed"] == 1
    assert fault_horizon([kill]) == 14.0


def test_a_row_the_cluster_cannot_run_is_refused_before_any_process():
    def refused(row, match, nodes=4):
        with pytest.raises(LiveClusterError, match=match):
            LiveClusterConfig(nodes=nodes, duration=5.0, faults=(row,))

    refused(Fault(2.0, "crash_node", (9,), "x"), r"\[9\] outside \[0, 4\)")
    refused(Fault(2.0, "crash_node", (-1,), "x"), r"\[-1\] outside")
    refused(Fault(2.0, "degrade_node", (4, 0.5, 2.0), "x"), "outside")
    refused(Fault(2.0, "partition", (((0, 1), (2, 7)),), "x"),
            r"\[7\] outside")
    refused(Fault(2.0, "disable_link", (0, 1), "x"), "no such verb")
    refused(Fault(2.0, "join_node", (1,), "x"), "no such verb")
    refused(Fault(2.0, "recover_node", (1,), "x"), "no such verb")
    refused(Fault(3.0, "crash_node", (1,), "x", 2.0), "before it happens")
    refused(Fault(-1.0, "crash_node", (1,), "x"), "before the cluster starts")
    LiveClusterConfig(nodes=4, duration=5.0, faults=(
        Fault(2.0, "partition", (((0, 1), (2, 3)),), "x", 3.0),))


def test_run_live_refuses_an_out_of_range_kill_without_a_traceback(capsys):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "scripts" / "run_live.py"
    module_spec = importlib.util.spec_from_file_location("run_live", path)
    run_live = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(run_live)
    assert run_live.main(["--nodes", "4", "--duration", "4",
                          "--kill", "9:2.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED: fault crash_node(9,) at 2.0s names node "
                          "indices [9] outside [0, 4)")
    assert "Traceback" not in err
