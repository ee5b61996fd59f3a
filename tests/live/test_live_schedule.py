"""A live deployment runs its spec's own schedule: what every process draws,
and the supervisor verbs that run the coordinator's rows (no process
started)."""

from __future__ import annotations

import heapq
from dataclasses import replace

import pytest

from repro.eval.faults import FAULT_VERBS, Fault, fault_horizon
from repro.eval.library import library_spec, resolve_protocol
from repro.eval.scenario import (ChurnModel, CorrelatedCrashModel, CrashModel,
                                 DegradeModel, FlappingPartitionModel,
                                 FlashCrowdModel, GroupModel, PartitionModel,
                                 ScenarioError, ScenarioSpec, WorkloadModel)
from repro.live import (LiveCluster, LiveClusterConfig, LiveFaultError,
                        live_runnable)
from repro.live.node import NODE_VERBS

pytestmark = pytest.mark.live

ROUTE = WorkloadModel(kind="route", source=-1, start=40.0, packets=8, gap=2.0)
SCALE = 0.05


def _spec(*models, protocol="chord", num_nodes=6, duration=120.0, seed=3):
    if not any(isinstance(model, WorkloadModel) for model in models):
        models += (ROUTE,)
    return ScenarioSpec(name="schedule-test",
                        agents=resolve_protocol(protocol),
                        num_nodes=num_nodes, duration=duration, seed=seed,
                        models=models)


def _drawn_rows(config):
    """Every row *config* draws, model after model."""
    return [row for model in config.draw() for row in model.rows]


def _rows(*models, **fields):
    """The fault rows a deployment of a spec with *models* draws."""
    rows = _drawn_rows(LiveClusterConfig(_spec(*models, **fields),
                                         time_scale=SCALE))
    return [row for row in rows if row.verb not in NODE_VERBS]


def _span(row):
    return None if row.until is None else row.until - row.at


# ---------------------------------------------------------- one schedule
SPECS = {
    "churn": _spec(
        ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.4,
                   churn_start=30.0, churn_end=60.0, downtime=8.0),
        WorkloadModel(kind="route", source=-1, start=15.0, packets=48,
                      gap=2.0)),
    "partition-under-churn": library_spec("partition-under-churn", seed=1),
    "flash-crowd": library_spec("flash-crowd", seed=2),
    "kv": _spec(
        ChurnModel(join="poisson", join_rate=2.0),
        CrashModel(at=50.0, fraction=0.3, recover_after=20.0),
        DegradeModel(at=30.0, restore_after=10.0, hosts=(2,),
                     bandwidth_factor=0.5),
        WorkloadModel(kind="kv", start=20.0, packets=30, gap=1.5, keys=8,
                      clients=3, repair_gap=10.0)),
    "pubsub": _spec(
        ChurnModel(join="staggered", join_spacing=0.5),
        GroupModel(group=3, source=1, at=10.0),
        WorkloadModel(kind="pubsub", source=-1, start=20.0, packets=12,
                      gap=1.0, topics=2, fanout=3),
        protocol="scribe-pastry"),
}


@pytest.mark.parametrize("name", SPECS)
def test_live_draws_the_simulators_joins_ops_and_faults_up_to_time_scale(
        name):
    """Every event the simulator compiles from the spec is a row or op the
    live processes hold, at its simulated offset: the draw keeps spec
    seconds whatever the ``time_scale``."""
    spec = SPECS[name]
    sim = [(event.time, event.detail, event.node)
           for compiled in spec.build().compiled_models
           for event in compiled.events]
    config = LiveClusterConfig(spec, time_scale=SCALE)
    live = [(op.time, op.detail, op.node) for model in config.draw()
            if model.plan is not None for op in model.plan.ops]
    for row in _drawn_rows(config):
        live.append((row.at, row.detail, row.node))
        if row.until is not None:
            live.append((row.until, row.undo_detail, row.node))
    assert sorted(map(repr, live)) == sorted(map(repr, sim))


@pytest.mark.parametrize("name", SPECS)
def test_every_drawn_row_runs_in_exactly_one_process(name):
    """A node process takes the join and group rows of its own index; the
    coordinator queues the fault rows at their spec times, undo included,
    and leaves out what falls past the horizon, as the simulator does."""
    config = LiveClusterConfig(SPECS[name], time_scale=SCALE)
    rows = _drawn_rows(config)
    assert all((row.verb in NODE_VERBS) != hasattr(LiveCluster, row.verb)
               for row in rows)
    assert all(row.node is not None for row in rows
               if row.verb in NODE_VERBS)
    cluster = _cluster(config)
    cluster._schedule(rows)
    expected = []
    for row in rows:
        if row.verb in NODE_VERBS or row.at > config.spec.duration:
            continue
        expected.append((row.at, row.verb, row.args))
        if row.until is not None and row.until <= config.spec.duration:
            _kind, undo, _undo_kind, arity = FAULT_VERBS[row.verb]
            expected.append((row.until, undo, row.args[:arity]))
    assert sorted((at, action.__name__, args)
                  for at, _, action, args in cluster._actions) \
        == sorted(expected)


def test_the_draw_is_deterministic_per_seed():
    spec = _spec(ChurnModel(churn_fraction=0.4, churn_start=30.0,
                            churn_end=60.0))
    assert LiveClusterConfig(spec).draw() == LiveClusterConfig(spec).draw()
    assert LiveClusterConfig(spec).draw() \
        != LiveClusterConfig(replace(spec, seed=9)).draw()


def test_an_unset_time_scale_fits_the_spec_into_the_wall_budget():
    from repro.live.cluster import WALL_BUDGET

    assert LiveClusterConfig(_spec(duration=120.0)).scale * 120.0 \
        == pytest.approx(WALL_BUDGET)
    assert LiveClusterConfig(_spec(duration=5.0)).scale == 1.0
    assert LiveClusterConfig(_spec(), time_scale=0.5).scale == 0.5


# ------------------------------------------------------------- fault rows
def test_churn_kills_land_in_the_churn_window():
    faults = _rows(ChurnModel(churn_fraction=0.4, churn_start=30.0,
                              churn_end=60.0, downtime=8.0))
    assert len(faults) == 2            # 40% of the 5 non-exempt nodes
    for fault in faults:
        assert fault.verb == "crash_node"
        assert fault.args[0] != 0      # the bootstrap is exempt
        assert 30.0 <= fault.at <= 60.0
        assert _span(fault) == pytest.approx(8.0)   # no floor
    assert fault_horizon(faults) == max(f.until for f in faults)


def test_crash_maps_named_victims_and_recovery():
    faults = _rows(CrashModel(at=60.0, victims=(2, 4), recover_after=30.0))
    assert [f.args for f in faults] == [(2,), (4,)]
    assert all(f.at == 60.0 for f in faults)
    assert _span(faults[0]) == pytest.approx(30.0)

    (permanent,) = _rows(CrashModel(at=60.0, victims=(2,)))
    assert permanent.until is None
    assert fault_horizon([permanent]) == permanent.at

    with pytest.raises(ScenarioError, match="out of range"):
        _rows(CrashModel(at=60.0, victims=(17,)))


def test_partition_keeps_its_groups_but_link_cuts_need_the_underlay():
    (fault,) = _rows(PartitionModel(at=40.0, groups=((0, 1, 2), (3, 4, 5)),
                                    heal_after=2.0))
    assert fault.verb == "partition"
    assert fault.args == (((0, 1, 2), (3, 4, 5)),)
    assert _span(fault) == pytest.approx(2.0)

    with pytest.raises(ScenarioError, match="host groups only"):
        _rows(PartitionModel(at=40.0, links=((0, 3),)))


def test_flapping_cycles_past_the_horizon_are_drawn_but_never_queued():
    config = LiveClusterConfig(
        _spec(FlappingPartitionModel(at=30.0, period=20.0, duty=0.5,
                                     cycles=10, groups=((0, 1, 2),))),
        time_scale=SCALE)
    rows = [row for row in _drawn_rows(config) if row.verb == "partition"]
    assert len(rows) == 10
    ats = [row.at for row in rows]
    assert [b - a for a, b in zip(ats, ats[1:])] \
        == pytest.approx([20.0] * 9)
    cluster = _cluster(config)
    cluster._schedule(rows)
    # Cuts at 30, 50, 70, 90, 110 s fit the 120 s horizon; the last heal
    # lands on it exactly.
    assert len(cluster._faults) == 5
    assert all(row.until is not None for row in cluster._faults)


def test_degrade_maps_factors_with_caps():
    (fault,) = _rows(DegradeModel(at=40.0, restore_after=30.0, hosts=(3,),
                                  latency_factor=5.0, bandwidth_factor=0.5))
    assert fault.verb == "degrade_node"
    assert fault.args == (3, 0.5, 5.0)
    (op,) = _sent_ops(fault)
    assert op["targets"] == [4]                  # node index 3's address
    assert op["delay"] == pytest.approx(0.08)    # (5 - 1) * 0.02
    assert op["loss"] == pytest.approx(0.5)      # 1 - bandwidth_factor

    (capped,) = _rows(DegradeModel(at=40.0, hosts=(3,), latency_factor=100.0,
                                   bandwidth_factor=0.01))
    (op,) = _sent_ops(capped)
    assert op["delay"] == pytest.approx(0.25)
    assert op["loss"] == pytest.approx(0.75)

    with pytest.raises(ScenarioError, match="access links only"):
        _rows(DegradeModel(at=40.0, links=((0, 1),), bandwidth_factor=0.5))


def _cluster(config=None, **fields) -> LiveCluster:
    """A cluster whose spawns and control sends are recorded, not made."""
    cluster = LiveCluster(config or LiveClusterConfig(_spec(), **fields))
    cluster.sent, cluster.spawned = [], []
    cluster._ready = [0] * cluster.config.spec.num_nodes
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
    with pytest.raises(ScenarioError, match="emulated topology"):
        _rows(CorrelatedCrashModel(at=40.0, racks=4))
    with pytest.raises(ScenarioError, match="sim-only"):
        _rows(FlashCrowdModel(core=2, at=30.0, stay=20.0))
    # Without the mass departure the crowd's joins are node rows.
    rows = _drawn_rows(LiveClusterConfig(_spec(FlashCrowdModel(core=2,
                                                               at=30.0))))
    assert sorted(row.node for row in rows) == list(range(6))
    assert {row.verb for row in rows} == {"join_node"}


def test_live_runnable_tags():
    ok, reason = live_runnable(_spec(ROUTE))
    assert ok and reason is None

    # Agent classes rather than a PROTOCOLS row: nothing names the stack.
    ok, reason = live_runnable(
        replace(_spec(ROUTE), agents=resolve_protocol("chord")()))
    assert not ok and "no live deployment" in reason

    ok, reason = live_runnable(replace(_spec(), models=()))
    assert not ok and "no WorkloadModel" in reason

    ok, reason = live_runnable(
        _spec(ROUTE, CorrelatedCrashModel(at=40.0, racks=4)))
    assert not ok and "emulated topology" in reason


#: Specs the simulator rejects.  Both drivers run the model's own ``draw``,
#: so each is rejected live by the very exception the simulator raises.
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
    "unknown-workload": WorkloadModel(kind="teleport"),
    "no-kv-keys": WorkloadModel(kind="kv", keys=0),
    "negative-crash": CrashModel(at=-5.0, victims=(2,), recover_after=10.0),
    "negative-recover": CrashModel(at=2.0, victims=(2,), recover_after=-5.0),
    "negative-workload": WorkloadModel(kind="route", start=-1.0),
    "negative-group": GroupModel(at=-1.0),
}


@pytest.mark.parametrize("name", REJECTED_EVERYWHERE)
def test_a_spec_the_simulator_rejects_is_rejected_live_in_the_same_words(name):
    spec = _spec(REJECTED_EVERYWHERE[name])
    with pytest.raises(ScenarioError) as sim:
        spec.build()
    with pytest.raises(ScenarioError) as live:
        LiveClusterConfig(spec).draw()
    assert (type(live.value), str(live.value)) \
        == (type(sim.value), str(sim.value))
    assert live_runnable(spec) == (False, str(sim.value))


def test_the_edges_of_a_churn_window_are_accepted_by_both():
    # The draw opens each victim's window at its join, so the simulator
    # accepts a churn window edge before zero and live must too.
    for window in ({"churn_start": -30.0, "churn_end": 60.0},
                   {"churn_end": -10.0}):
        spec = _spec(ChurnModel(churn_fraction=0.4, downtime=8.0, **window))
        spec.build()
        kills = _rows(ChurnModel(churn_fraction=0.4, downtime=8.0, **window))
        assert len(kills) == 2 and all(kill.at >= 0 for kill in kills)
        assert live_runnable(spec) == (True, None)


def test_negative_victim_index_counts_from_the_end_in_both_modes():
    spec = _spec(CrashModel(at=60.0, victims=(-1,)))
    experiment = spec.build()
    assert [event.node for event in experiment.compiled_models[0].events] \
        == [spec.num_nodes - 1]
    (kill,) = _rows(CrashModel(at=60.0, victims=(-1,)))
    assert (kill.verb, kill.args, kill.until) \
        == ("crash_node", (spec.num_nodes - 1,), None)


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
    """Once its process has bound the reborn socket (its ready flag), and
    only then, on supervision's time rather than the spec's."""
    cluster = _cluster()
    cluster.partition(((0, 1), (2, 3, 4, 5)))
    cluster.sent.clear()
    cluster._now = 3.0
    cluster.crash_node(2)
    assert cluster._state[2]["down"]
    cluster._now = 4.0
    cluster.recover_node(2)
    assert _drain(cluster) == [(4.0, "_respawn", (2,))]
    assert cluster.spawned == [2]
    cluster._replay()
    assert cluster.sent == []          # not bound yet
    cluster._ready[2] = 1
    cluster._replay()
    cluster._replay()                  # once per rebirth
    # ``_send_control`` itself fires each frame twice.
    assert cluster.sent == [(cluster._standing["partition"], [3])]
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


def test_a_row_no_live_process_can_run_is_refused_before_any_process():
    from dataclasses import dataclass

    from repro.eval.scenario import ScenarioModel

    @dataclass(frozen=True)
    class Rejoiner(ScenarioModel):
        def draw(self, num_nodes, rng, horizon, experiment=None):
            return [Fault(1.0, "recover_node", (1,), "a bare recovery")], {}

    with pytest.raises(LiveFaultError, match="recover_node"):
        LiveCluster(LiveClusterConfig(_spec(Rejoiner()))).run()


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
    assert err.startswith("FAILED: victim index 9 out of range for 4 nodes")
    assert "Traceback" not in err
