"""Tests for the adversarial stressor models (flash crowds, rack failures,
flapping/asymmetric partitions, degradation) and their compile-time
validation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.eval import (
    ChurnModel,
    CorrelatedCrashModel,
    DegradeModel,
    FlappingPartitionModel,
    FlashCrowdModel,
    GroupModel,
    OverlayExperiment,
    PartitionModel,
    ScenarioError,
    ScenarioSpec,
    Stack,
    WorkloadModel,
)
from repro.network.topology import BANDWIDTH_ATTR, dumbbell_topology
from repro.protocols import chord_agent
from repro.runtime.failure import FailureDetectorConfig

FAST_FAILURE = FailureDetectorConfig(failure_timeout=10.0,
                                     heartbeat_timeout=4.0,
                                     check_interval=1.0)


def ring_spec(name: str, models, *, num_nodes: int = 8, seed: int = 1,
              duration: float = 120.0) -> ScenarioSpec:
    return ScenarioSpec(name=name, agents=[chord_agent()],
                        num_nodes=num_nodes, duration=duration, seed=seed,
                        failure_config=FAST_FAILURE, models=tuple(models))


def ring_experiment(num_nodes: int = 8, seed: int = 1,
                    duration: float = 120.0) -> OverlayExperiment:
    return ring_spec("compile", (), num_nodes=num_nodes, seed=seed,
                     duration=duration).build()


# ------------------------------------------------------------------ flash crowd
def test_flash_crowd_core_then_poisson_burst():
    experiment = ring_experiment()
    compiled = experiment.apply_model(
        FlashCrowdModel(core=3, core_spacing=0.5, at=30.0, burst_rate=10.0))
    joins = [event for event in compiled.events if event.kind == "join"]
    assert len(joins) == 8
    core, crowd = joins[:3], joins[3:]
    assert [event.time for event in core] == [0.0, 0.5, 1.0]
    assert all(event.time > 30.0 for event in crowd)
    times = [event.time for event in crowd]
    assert times == sorted(times)
    assert compiled.metrics()["crowd"] == 5.0


def test_flash_crowd_departure_schedules_crashes_per_join():
    experiment = ring_experiment()
    compiled = experiment.apply_model(
        FlashCrowdModel(core=2, at=20.0, burst_rate=5.0, stay=15.0))
    joins = {event.detail: event.time for event in compiled.events
             if event.kind == "join" and "(crowd)" in event.detail}
    crashes = [event for event in compiled.events if event.kind == "crash"]
    assert len(crashes) == 6
    for crash in crashes:
        index = crash.detail.split()[1]
        assert crash.time == pytest.approx(
            joins[f"node {index} joins (crowd)"] + 15.0)


def test_flash_crowd_validates_core_and_rate():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError, match="core"):
        experiment.apply_model(FlashCrowdModel(core=9))
    with pytest.raises(ScenarioError, match="burst_rate"):
        experiment.apply_model(FlashCrowdModel(burst_rate=0.0))
    with pytest.raises(ScenarioError, match="stay"):
        experiment.apply_model(FlashCrowdModel(stay=-1.0))


# --------------------------------------------------------------- rack failures
def test_correlated_crash_kills_whole_stub_domains():
    experiment = ring_experiment(num_nodes=12)
    compiled = experiment.apply_model(
        CorrelatedCrashModel(at=10.0, racks=1, exempt=()))
    victims = sorted(int(event.detail.split()[1])
                     for event in compiled.events if event.kind == "crash")
    # Victims are exactly one failure domain: all share a stub-clique, and
    # clients attach to stub routers domain by domain (4 per domain).
    domain_of = CorrelatedCrashModel.failure_domains(experiment)
    domains = {domain_of[experiment.nodes[v].host.topology_node]
               for v in victims}
    assert len(domains) == 1
    assert len(victims) == 4


def test_correlated_crash_recover_after_schedules_rack_powercycle():
    experiment = ring_experiment(num_nodes=12)
    compiled = experiment.apply_model(
        CorrelatedCrashModel(at=10.0, racks=2, recover_after=20.0))
    crashes = [e for e in compiled.events if e.kind == "crash"]
    recoveries = [e for e in compiled.events if e.kind == "recover"]
    assert len(crashes) == len(recoveries) > 0
    assert all(e.time == 10.0 for e in crashes)
    assert all(e.time == 30.0 for e in recoveries)
    assert compiled.metrics()["racks"] == 2.0


def test_correlated_crash_validates_rack_count():
    experiment = ring_experiment(num_nodes=8)   # nodes span 2 stub domains
    with pytest.raises(ScenarioError, match="failure domains"):
        experiment.apply_model(CorrelatedCrashModel(racks=5))


# ------------------------------------------------------------------- flapping
def test_flapping_partition_cut_heal_cadence():
    experiment = ring_experiment()
    compiled = experiment.apply_model(FlappingPartitionModel(
        at=10.0, period=20.0, duty=0.25, cycles=3,
        groups=((0, 1, 2, 3), (4, 5, 6, 7))))
    cuts = [e.time for e in compiled.events if e.kind == "partition"]
    heals = [e.time for e in compiled.events if e.kind == "heal"]
    assert cuts == [10.0, 30.0, 50.0]
    assert heals == [15.0, 35.0, 55.0]
    assert compiled.metrics()["cut_seconds"] == 15.0


def test_flapping_directed_links_emit_directional_cuts():
    experiment = ring_experiment()
    graph = experiment.topology.graph
    edge = next(iter(graph.edges()))
    compiled = experiment.apply_model(FlappingPartitionModel(
        at=5.0, period=10.0, duty=0.5, cycles=2, links=(edge,),
        directed=True))
    cuts = [e for e in compiled.events if e.kind == "link-cut"]
    heals = [e for e in compiled.events if e.kind == "link-heal"]
    assert len(cuts) == len(heals) == 2
    assert all("->" in e.detail for e in cuts)


def test_flapping_partition_validation():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError, match="groups or links"):
        experiment.apply_model(FlappingPartitionModel())
    with pytest.raises(ScenarioError, match="direction"):
        experiment.apply_model(FlappingPartitionModel(
            groups=((0, 1), (2, 3)), directed=True))
    with pytest.raises(ScenarioError, match="duty"):
        experiment.apply_model(FlappingPartitionModel(
            groups=((0, 1),), duty=1.5))


# ---------------------------------------------------------------- degradation
def test_degrade_model_schedules_degrade_and_restore():
    experiment = ring_experiment()
    graph = experiment.topology.graph
    edge = next(iter(graph.edges()))
    compiled = experiment.apply_model(DegradeModel(
        at=10.0, restore_after=30.0, hosts=(1, 2), links=(edge,),
        latency_factor=4.0))
    degrades = [e for e in compiled.events if e.kind == "degrade"]
    restores = [e for e in compiled.events if e.kind == "restore"]
    assert len(degrades) == len(restores) == 3    # two hosts + one link
    assert all(e.time == 10.0 for e in degrades)
    assert all(e.time == 40.0 for e in restores)
    assert compiled.metrics() == {"hosts": 2.0, "links": 1.0}


def test_degrade_model_validation():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError, match="hosts, host_fraction, or links"):
        experiment.apply_model(DegradeModel(latency_factor=2.0))
    with pytest.raises(ScenarioError, match="not both"):
        experiment.apply_model(DegradeModel(hosts=(1,), host_fraction=0.5,
                                            latency_factor=2.0))
    with pytest.raises(ScenarioError, match="bandwidth_factor"):
        experiment.apply_model(DegradeModel(hosts=(1,), bandwidth_factor=2.0))
    with pytest.raises(ScenarioError, match="no-op"):
        experiment.apply_model(DegradeModel(hosts=(1,)))


# ------------------------------------------------- compile-time link validation
def test_partition_model_rejects_unknown_links_with_offender_list():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError) as excinfo:
        experiment.apply_model(PartitionModel(
            at=5.0, links=((10, 0), (98765, 43210), (11111, 2))))
    assert "(98765, 43210)" in str(excinfo.value)
    assert "(11111, 2)" in str(excinfo.value)
    assert "(10, 0)" not in str(excinfo.value)   # the valid edge is not listed


def test_partition_model_rejects_out_of_range_group_members():
    experiment = ring_experiment(num_nodes=6)
    with pytest.raises(ScenarioError) as excinfo:
        experiment.apply_model(PartitionModel(
            at=5.0, groups=((0, 1, 42), (2, 99))))
    message = str(excinfo.value)
    assert "42" in message and "99" in message


def test_degrade_and_flapping_validate_links_at_compile_time():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError, match="not in topology"):
        experiment.apply_model(DegradeModel(links=((55555, 55556),),
                                            latency_factor=2.0))
    with pytest.raises(ScenarioError, match="not in topology"):
        experiment.apply_model(FlappingPartitionModel(
            links=((55555, 55556),), directed=True))


# ------------------------------------------------------------------ group model
def test_group_model_creates_then_joins_staggered():
    experiment = ring_experiment()
    compiled = experiment.apply_model(GroupModel(group=3, source=0, at=10.0,
                                                 spacing=0.5))
    events = [e for e in compiled.events if e.kind == "group"]
    assert events[0].time == 10.0 and "creates" in events[0].detail
    assert [e.time for e in events[1:]] == [10.5, 11.0, 11.5, 12.0, 12.5,
                                            13.0, 13.5]


# ---------------------------------------------------------- end-to-end stress
def test_crash_during_partition_recovers_after_heal():
    """A node that dies while partitioned and recovers after the heal must
    rejoin the overlay (the recovery path crosses the healed cut)."""
    spec = ring_spec(
        "crash-during-partition",
        [ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.0),
         PartitionModel(at=20.0, heal_after=25.0,
                        groups=((0, 1, 2, 3), (4, 5, 6, 7))),
         CrashModelAt(victim=5, at=30.0, recover_at=55.0),
         WorkloadModel(kind="route", source=-1, start=15.0, packets=20,
                       gap=2.0)],
        duration=120.0)
    result = spec.run()
    node = result.experiment.nodes[5]
    assert node.alive and node.initialized
    assert node.crash_count == 1 and node.recover_count == 1
    assert result.metrics["nodes.alive"] == 8.0


def test_recover_into_degraded_link_still_rejoins():
    """Recovery while the victim's access links are degraded must still
    complete the rejoin — slower service, not absent service."""
    spec = ring_spec(
        "recover-into-degraded",
        [ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.0),
         CrashModelAt(victim=3, at=25.0, recover_at=45.0),
         DegradeModel(at=35.0, restore_after=40.0, hosts=(3,),
                      bandwidth_factor=0.2, latency_factor=6.0,
                      exempt=()),
         WorkloadModel(kind="route", source=-1, start=15.0, packets=20,
                       gap=2.0)],
        duration=140.0)
    result = spec.run()
    node = result.experiment.nodes[3]
    assert node.alive and node.initialized
    assert node.recover_count == 1
    assert result.experiment.emulator._faults_active is False  # restored


def CrashModelAt(victim: int, at: float, recover_at: float):
    """A single-victim crash/recover pair via the stock CrashModel."""
    from repro.eval import CrashModel

    return CrashModel(at=at, victims=(victim,), recover_after=recover_at - at)


# --------------------------------------------------------------- determinism
def route_40_spec() -> ScenarioSpec:
    return ring_spec(
        "d-route40", [ChurnModel(join="staggered", join_spacing=0.1),
                      WorkloadModel(kind="route", source=-1, start=15.0,
                                    packets=5, gap=0.25)],
        num_nodes=40, seed=7, duration=20.0)


def degraded_uplink_spec() -> ScenarioSpec:
    """A core link slowed a hundredfold queues every packet crossing it."""
    spec = route_40_spec()
    uplink = next((u, v) for u, v, data
                  in spec.build().topology.graph.edges(data=True)
                  if data[BANDWIDTH_ATTR] > 1e9)
    return replace(spec, models=spec.models + (
        DegradeModel(at=5.0, links=(uplink,), bandwidth_factor=0.01),))


STRESSOR_SPECS = {
    "route-40": route_40_spec,
    "degraded-uplink": degraded_uplink_spec,
    # Every packet between the two sides queues at the narrow bottleneck.
    "dumbbell-bottleneck": lambda: replace(ring_spec(
        "d-dumbbell", [ChurnModel(join="staggered", join_spacing=0.1),
                       WorkloadModel(kind="route", source=-1, start=15.0,
                                     packets=40, gap=0.5)],
        num_nodes=12, seed=7, duration=40.0),
        topology=dumbbell_topology(clients_per_side=6,
                                   bottleneck_bandwidth=20_000.0)),
    "flash-crowd": lambda: ring_spec(
        "d-flash", [FlashCrowdModel(core=3, at=20.0, burst_rate=8.0,
                                    stay=25.0),
                    WorkloadModel(kind="route", source=-1, start=15.0,
                                  packets=15, gap=2.0)]),
    "correlated-crash": lambda: ring_spec(
        "d-rack", [ChurnModel(join="staggered", join_spacing=0.5),
                   CorrelatedCrashModel(at=20.0, racks=1, recover_after=20.0),
                   WorkloadModel(kind="route", source=-1, start=15.0,
                                 packets=15, gap=2.0)]),
    "flapping": lambda: ring_spec(
        "d-flap", [ChurnModel(join="staggered", join_spacing=0.5),
                   FlappingPartitionModel(at=20.0, period=16.0, duty=0.5,
                                          cycles=2,
                                          groups=((0, 1, 2, 3),
                                                  (4, 5, 6, 7))),
                   WorkloadModel(kind="route", source=-1, start=15.0,
                                 packets=15, gap=2.0)]),
    "asymmetric": lambda: ring_spec(
        "d-asym", [ChurnModel(join="staggered", join_spacing=0.5),
                   FlappingPartitionModel(at=20.0, period=16.0, duty=0.5,
                                          cycles=2, links=((10, 0),),
                                          directed=True),
                   WorkloadModel(kind="route", source=-1, start=15.0,
                                 packets=15, gap=2.0)]),
    "degrade": lambda: ring_spec(
        "d-degrade", [ChurnModel(join="staggered", join_spacing=0.5),
                      DegradeModel(at=20.0, restore_after=30.0,
                                   host_fraction=0.3, bandwidth_factor=0.2,
                                   latency_factor=5.0),
                      DegradeModel(at=25.0, restore_after=20.0,
                                   links=((10, 0), (14, 0)),
                                   latency_factor=3.0),
                      WorkloadModel(kind="route", source=-1, start=15.0,
                                    packets=15, gap=2.0)]),
    "group": lambda: ring_spec(
        "d-group", [ChurnModel(join="staggered", join_spacing=0.5),
                    GroupModel(group=2, source=1, at=10.0)]),
    "link-cut": lambda: ring_spec(
        "d-cut", [ChurnModel(join="staggered", join_spacing=0.5),
                  PartitionModel(at=20.0, heal_after=10.0,
                                 links=((10, 0), (14, 0))),
                  WorkloadModel(kind="route", source=-1, start=15.0,
                                packets=15, gap=2.0)]),
    # Each source host draws its losses from its own stream.
    "random-loss": lambda: replace(ring_spec(
        "d-loss", [ChurnModel(join="staggered", join_spacing=0.1),
                   WorkloadModel(kind="route", source=-1, start=15.0,
                                 packets=40, gap=1.0)],
        num_nodes=24, seed=5, duration=60.0), random_loss_rate=0.02),
    "kv-repair": lambda: ring_spec(
        "d-kv", [ChurnModel(join="staggered", join_spacing=0.1),
                 WorkloadModel(kind="kv", start=12.0, packets=16, gap=0.4,
                               keys=8, repair_gap=4.0)],
        num_nodes=40, seed=7, duration=24.0),
    "scribe-partition": lambda: replace(ring_spec(
        "d-scribe", [ChurnModel(join="staggered", join_spacing=0.15),
                     GroupModel(group=7, source=0, at=18.0, spacing=0.25),
                     PartitionModel(groups=((1, 2, 3),), at=20.0,
                                    heal_after=6.0),
                     WorkloadModel(kind="multicast", source=0, group=7,
                                   start=38.0, packets=4, gap=1.0)],
        num_nodes=30, seed=3, duration=45.0),
        agents=Stack("scribe")),
    "pubsub-fanout": lambda: replace(ring_spec(
        "d-pubsub", [ChurnModel(join="staggered", join_spacing=0.15),
                     WorkloadModel(kind="pubsub", source=-1, start=15.0,
                                   packets=8, gap=0.5, topics=3, fanout=7)],
        num_nodes=30, seed=3, duration=32.0),
        agents=Stack("scribe")),
}


@pytest.mark.determinism
@pytest.mark.parametrize("name", sorted(STRESSOR_SPECS))
def test_stressor_fixed_seed_runs_are_byte_identical(name):
    build = STRESSOR_SPECS[name]
    first = build().run()
    second = build().run()
    assert first.metrics == second.metrics
    assert first.events == second.events
    assert first.series == second.series
    if name == "random-loss":
        assert first.metrics["net.packets_dropped"] > 0
    if name == "route-40":
        assert first.metrics["nodes.alive"] == 40.0
