"""Compiling scenario fault models onto the live wall-clock schedule."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.eval.library import resolve_protocol
from repro.eval.scenario import (ChurnModel, CorrelatedCrashModel, CrashModel,
                                 DegradeModel, FlappingPartitionModel,
                                 FlashCrowdModel, PartitionModel,
                                 ScenarioError, ScenarioSpec, WorkloadModel)
from repro.live import (DegradeFault, KillNode, LiveClusterConfig,
                        LiveFaultError, PartitionFault, compile_fault_models,
                        fault_horizon, live_runnable)

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


def test_churn_compiles_to_kills_inside_the_workload_window():
    config = _config()
    spec = _spec(ChurnModel(churn_fraction=0.4, churn_start=30.0,
                            churn_end=60.0, downtime=8.0))
    faults = compile_fault_models(spec, config)
    assert len(faults) == 2            # 40% of the 5 non-exempt nodes
    for fault in faults:
        assert isinstance(fault, KillNode)
        assert fault.index != 0        # the bootstrap is exempt
        # Kill times land inside the rescaled [churn_start, churn_end]
        # window; the rescaled 8 s downtime is floored to a real outage.
        assert config.workload_start <= fault.at <= config.duration
        assert fault.respawn_after == pytest.approx(1.0)
    assert fault_horizon(faults) == max(f.at + f.respawn_after
                                        for f in faults)


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
    assert [f.index for f in faults] == [2, 4]
    at = faults[0].at
    # t=60 of 120 sim seconds lands mid-window on the live clock.
    assert at == pytest.approx(1.9 + 60.0 * (7.0 - 1.9) / 120.0, abs=1e-3)
    assert all(f.at == at for f in faults)
    # 30 sim seconds rescale above the floor: scaled, not floored.
    assert faults[0].respawn_after == pytest.approx(30.0 * 5.1 / 120.0,
                                                    abs=1e-3)

    permanent = compile_fault_models(
        _spec(CrashModel(at=60.0, victims=(2,))), _config())
    assert permanent[0].respawn_after is None
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
    assert isinstance(fault, PartitionFault)
    assert fault.groups == ((0, 1, 2), (3, 4, 5))
    assert fault.heal_after == pytest.approx(0.5)   # floored heal span

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
    assert all(isinstance(f, PartitionFault) for f in faults)
    ats = [f.at for f in faults]
    assert ats == sorted(ats)
    gaps = [b - a for a, b in zip(ats, ats[1:])]
    assert all(gap == pytest.approx(1.0, abs=1e-3) for gap in gaps)
    assert all(f.heal_after == pytest.approx(0.5) for f in faults)


def test_degrade_maps_factors_with_caps():
    faults = compile_fault_models(
        _spec(DegradeModel(at=40.0, restore_after=30.0, hosts=(3,),
                           latency_factor=5.0, bandwidth_factor=0.5)),
        _config())
    (fault,) = faults
    assert isinstance(fault, DegradeFault)
    assert fault.indices == (3,)
    assert fault.delay == pytest.approx(0.08)    # (5 - 1) * 0.02
    assert fault.loss == pytest.approx(0.5)      # 1 - bandwidth_factor

    capped = compile_fault_models(
        _spec(DegradeModel(at=40.0, hosts=(3,), latency_factor=100.0,
                           bandwidth_factor=0.01)),
        _config())
    assert capped[0].delay == pytest.approx(0.25)
    assert capped[0].loss == pytest.approx(0.75)

    with pytest.raises(LiveFaultError, match="access links only"):
        compile_fault_models(
            _spec(DegradeModel(at=40.0, links=((0, 1),),
                               bandwidth_factor=0.5)),
            _config())


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
    assert kill == KillNode(at=kill.at, index=_config().nodes - 1)


def test_a_kill_respawns_after_its_whole_downtime():
    """The backoff cap bounds the stretch a repeat kill adds, never the
    directive's own downtime, which ``fault_horizon`` counts in full."""
    from repro.live.cluster import BACKOFF_CAP, LiveCluster

    kill = KillNode(at=2.0, index=1, respawn_after=12.0)
    assert 12.0 > BACKOFF_CAP
    for restarts, delay in ((0, 12.0), (1, 12.0 + BACKOFF_CAP)):
        pushed = []
        state = {1: {"down": False, "pending_respawn": False, "proc": None,
                     "killed": 0, "restarts": restarts}}
        LiveCluster(_config())._do_kill(
            kill, state, lambda *action: pushed.append(action), now=2.0)
        assert pushed == [(2.0 + delay, "respawn", 1)]
        assert state[1]["pending_respawn"] and state[1]["killed"] == 1
    assert fault_horizon([kill]) == 14.0
