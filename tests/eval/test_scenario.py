"""Tests for the declarative scenario subsystem and the multi-seed runner."""

from __future__ import annotations

import pickle
import re
from dataclasses import replace

import networkx as nx
import pytest

from repro.eval import (
    ChurnModel,
    CrashModel,
    OverlayExperiment,
    PartitionModel,
    SampleSeries,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    Stack,
    SummaryStats,
    WorkloadModel,
)
from repro.eval.metrics import ring_successor_correctness
from repro.network.topology import TopologyError, transit_stub_topology
from repro.protocols import chord_agent
from repro.runtime.failure import FailureDetectorConfig

#: Aggressive failure detection keeps test scenarios short.
FAST_FAILURE = FailureDetectorConfig(failure_timeout=10.0,
                                     heartbeat_timeout=4.0,
                                     check_interval=1.0)


def ring_spec(num_nodes: int = 8, seed: int = 1, duration: float = 120.0,
              models=()) -> ScenarioSpec:
    return ScenarioSpec(name="ring", agents=[chord_agent()],
                        num_nodes=num_nodes, duration=duration, seed=seed,
                        failure_config=FAST_FAILURE, models=tuple(models))


def ring_experiment(num_nodes: int = 8, seed: int = 1,
                    duration: float = 120.0) -> OverlayExperiment:
    return ring_spec(num_nodes, seed, duration).build()


def joined_ring(num_nodes: int, seed: int, models=()) -> OverlayExperiment:
    """A ring whose nodes all join at t = 0, built with *models*."""
    return ring_spec(num_nodes, seed,
                     models=(ChurnModel(join="immediate"),) + tuple(models)
                     ).build()


# ----------------------------------------------------------------- model compile
def test_churn_model_staggered_join_schedule():
    experiment = ring_experiment()
    compiled = experiment.apply_model(
        ChurnModel(join="staggered", join_spacing=0.5))
    joins = [event for event in compiled.events if event.kind == "join"]
    assert len(joins) == 8
    assert [event.time for event in joins] == [i * 0.5 for i in range(8)]


def test_churn_model_poisson_joins_monotone_and_seed_dependent():
    experiment = ring_experiment()
    compiled = experiment.apply_model(ChurnModel(join="poisson", join_rate=2.0))
    times = [event.time for event in compiled.events if event.kind == "join"]
    assert times[0] == 0.0
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_churn_model_schedules_crash_and_rejoin_pairs():
    experiment = ring_experiment()
    compiled = experiment.apply_model(
        ChurnModel(churn_fraction=0.5, churn_start=30.0, downtime=10.0),
        horizon=100.0)
    crashes = [e for e in compiled.events if e.kind == "crash"]
    recovers = [e for e in compiled.events if e.kind == "recover"]
    assert len(crashes) == round(0.5 * 7)  # bootstrap exempt
    assert len(recovers) == len(crashes)
    for crash, recover in zip(crashes, recovers):
        assert recover.time == pytest.approx(crash.time + 10.0)
        assert 30.0 <= crash.time <= 100.0


def test_churn_crashes_never_precede_the_victims_join():
    experiment = ring_experiment()
    compiled = experiment.apply_model(
        ChurnModel(join="staggered", join_spacing=20.0, churn_fraction=1.0,
                   churn_start=0.0, downtime=5.0),
        horizon=300.0)
    join_at = {event.detail.split()[1]: event.time
               for event in compiled.events if event.kind == "join"}
    crashes = [e for e in compiled.events if e.kind == "crash"]
    assert crashes
    for event in crashes:
        victim = event.detail.split()[1]
        assert event.time >= join_at[victim]


def test_scenario_restores_chained_handlers_in_reverse_order():
    spec = ScenarioSpec(
        name="two-workloads", agents=[chord_agent()], num_nodes=4,
        duration=40.0, failure_config=FAST_FAILURE,
        models=(ChurnModel(join="immediate"),
                WorkloadModel(kind="route", source=-1, start=20.0, packets=3),
                WorkloadModel(kind="route", source=-1, start=20.0, packets=3)),
    )
    result = spec.run()
    # After the run, every node is back to its pristine (empty) handlers —
    # no workload recorder left chained in.
    for node in result.experiment.nodes:
        assert node.handlers.deliver is None


def test_crash_model_rejects_victims_and_fraction_together():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError):
        experiment.apply_model(CrashModel(at=1.0, victims=(1,), fraction=0.5))


def test_crash_model_rejects_out_of_range_victims():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError):
        experiment.apply_model(CrashModel(at=1.0, victims=(99,)))


def test_partition_model_requires_groups_or_links():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError):
        experiment.apply_model(PartitionModel(at=1.0))


def test_negative_event_time_rejected():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError):
        experiment.apply_model(CrashModel(at=-5.0, victims=(1,)))


def test_sample_series_rejects_a_start_in_the_past():
    with pytest.raises(ScenarioError, match="in the past"):
        SampleSeries("early", 1.0, lambda exp: 0.0, start=-1.0)
    with pytest.raises(ScenarioError, match="positive"):
        SampleSeries("never", 0.0, lambda exp: 0.0)


def test_workload_model_rejects_unknown_kind():
    experiment = ring_experiment()
    with pytest.raises(ScenarioError):
        experiment.apply_model(WorkloadModel(kind="teleport"))


def test_concurrent_workloads_get_distinct_streams():
    experiment = joined_ring(4, seed=9, models=(
        WorkloadModel(kind="route", source=-1, start=30.0, packets=5,
                      gap=0.5),
        WorkloadModel(kind="route", source=-1, start=30.0, packets=8,
                      gap=0.5)))
    experiment.run(50.0)
    first, second = experiment.compiled_models[1:]
    # Each model scored only its own probes despite overlapping seqnos.
    assert first.observations.sent == 5
    assert second.observations.sent == 8
    assert first.metrics()["success_ratio"] == 1.0
    assert second.metrics()["success_ratio"] == 1.0
    # Auto ids start above app-conventional stream numbers.
    base = WorkloadModel.AUTO_STREAM_BASE
    assert experiment.workload_streams == {base, base + 1}
    with pytest.raises(ScenarioError):
        experiment.apply_model(WorkloadModel(kind="route", stream_id=base))


def test_partition_model_heals_three_links_without_full_invalidation(monkeypatch):
    experiment = joined_ring(4, seed=9)
    experiment.run(30.0)
    graph = experiment.topology.graph
    bridges = {frozenset(edge) for edge in nx.bridges(graph)}
    links = tuple(edge for edge in sorted(graph.edges())
                  if frozenset(edge) not in bridges)[:3]
    assert len(links) == 3
    router = experiment.emulator.router
    healed = []
    enable_edge = router.enable_edge

    def recording_enable(u, v):
        healed.append((experiment.simulator.now, (u, v)))
        enable_edge(u, v)

    def forbidden():
        raise AssertionError("a link heal fell back to Router.invalidate()")

    monkeypatch.setattr(router, "enable_edge", recording_enable)
    monkeypatch.setattr(router, "invalidate", forbidden)
    start = experiment.simulator.now
    workload = experiment.apply_model(
        WorkloadModel(kind="route", source=-1, packets=20, gap=0.5))
    experiment.apply_model(PartitionModel(at=2.0, heal_after=4.0, links=links))
    experiment.run(20.0)
    assert [edge for _, edge in healed] == list(links)
    assert {time for time, _ in healed} == {start + 6.0}   # one instant
    assert not router.disabled_edges()
    assert workload.metrics()["success_ratio"] == 1.0


# ---------------------------------------------------------------- experiment
def test_experiment_rejects_more_nodes_than_attachment_points():
    topology = transit_stub_topology(4, seed=1)
    with pytest.raises(TopologyError) as excinfo:
        ScenarioSpec(name="crowded", agents=[chord_agent()], num_nodes=10,
                     duration=10.0, topology=topology).build()
    message = str(excinfo.value)
    assert "num_nodes=10" in message and "4 client attachment points" in message


@pytest.mark.parametrize("kind", ["route", "kv", "pubsub"])
def test_workload_chains_and_restores_deliver_handlers(kind):
    if kind == "pubsub":
        experiment = ScenarioSpec(
            name="topics", agents=Stack("scribe"), num_nodes=4,
            duration=120.0, seed=5, failure_config=FAST_FAILURE,
            models=(ChurnModel(join="immediate"),)).build()
    else:
        experiment = joined_ring(4, seed=5)
    experiment.run(30.0)
    seen = []
    original = lambda payload, size, mtype: seen.append(payload)  # noqa: E731
    for node in experiment.nodes:
        node.macedon_register_handlers(deliver=original)
    originals = [node.handlers for node in experiment.nodes]

    compiled = experiment.apply_model(
        WorkloadModel(kind=kind, source=-1, packets=10, gap=0.5, topics=1))
    experiment.run(30.0)
    observations = compiled.observations
    assert observations.sent == 10
    assert observations.deliveries > 0
    if kind == "route":
        assert compiled.metrics()["success_ratio"] == 1.0
        # The recorder hands every delivery on, probes included.
        assert len(seen) == observations.deliveries
    else:
        # The app consumes its own payloads ...
        assert seen == []
    # ... and hands a foreign one to the handler it chained over.
    first, last = experiment.nodes[0], experiment.nodes[-1]
    first.macedon_routeIP(last.address, "foreign", 64)
    experiment.run(5.0)
    assert seen[-1] == "foreign"
    compiled.restore()
    assert all(node.handlers is handlers
               for node, handlers in zip(experiment.nodes, originals))


def test_stack_params_survive_recovery():
    spec = ScenarioSpec(
        name="retune", agents=Stack("chord", params=(("chord", "fix_period", 20.0),)),
        num_nodes=4, duration=60.0, failure_config=FAST_FAILURE,
        models=(ChurnModel(join="immediate"),
                CrashModel(at=10.0, victims=(2,), recover_after=15.0)),
    )
    result = spec.run()
    node = result.experiment.nodes[2]
    assert node.crash_count == 1 and node.alive
    # Recovery rebuilt the agent stack; the params row tuned it again (an
    # untuned Chord takes DEFAULT_FIX_PERIOD when it joins).
    assert node.agent("chord").fix_period == 20.0
    assert node.agent("chord").CONSTANTS["DEFAULT_FIX_PERIOD"] != 20.0


@pytest.mark.parametrize("row", [
    ("chord", "fix_perod", 1.0),            # a typo
    ("chord", "stabilize", 1.0),            # a timer, not a var
    ("pastry", "cache_lifetime", 1.0),      # a protocol not in the stack
])
def test_a_params_row_outside_the_stack_raises_at_build(row):
    """A typo must not silently run the scenario at the default: a row
    names a protocol of the stack and a ``var`` it declares."""
    spec = replace(ring_spec(4), agents=Stack("chord", params=(row,)))
    with pytest.raises(ScenarioError, match=re.escape(
            f"params row {row[:2]!r} names no declared var")):
        spec.build()


def test_a_relayered_stack_resolves_and_pickles():
    stack = Stack("splitstream", base="chord")
    assert [cls.__name__ for cls in stack.resolve()] == \
        ["ChordAgent", "ScribeAgentOverChord", "SplitstreamAgent"]
    assert pickle.loads(pickle.dumps(stack)) == stack
    assert pickle.loads(pickle.dumps(stack)).resolve() == stack.resolve()


# -------------------------------------------------------------- whole scenarios
def churn_crash_partition_spec(seed: int = 1) -> ScenarioSpec:
    """The acceptance scenario: churn + crash + partition + workload."""
    return ScenarioSpec(
        name="acceptance",
        agents=[chord_agent()],
        num_nodes=10,
        duration=150.0,
        seed=seed,
        failure_config=FAST_FAILURE,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.25,
                       churn_start=30.0, churn_end=100.0, downtime=12.0),
            CrashModel(at=50.0, victims=(3,), recover_after=20.0),
            PartitionModel(at=70.0, heal_after=15.0,
                           groups=((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))),
            WorkloadModel(kind="route", source=-1, start=25.0, packets=60,
                          gap=1.5),
        ),
        samples=(SampleSeries("succ_correctness", 10.0,
                              lambda exp: ring_successor_correctness(exp.nodes)),),
    )


def test_scenario_run_produces_metrics_series_and_events():
    result = churn_crash_partition_spec().run()
    metrics = result.metrics
    assert metrics["churn.joins"] == 10.0
    assert metrics["nodes.crashes"] >= 2          # churn victims + CrashModel
    assert metrics["workload.sent"] > 0
    assert 0.0 < metrics["workload.success_ratio"] <= 1.0
    assert metrics["net.packets_dropped"] > 0     # the partition bit someone
    kinds = {kind for _, kind, _ in result.events}
    assert {"join", "crash", "recover", "partition", "heal"} <= kinds
    series = result.series["succ_correctness"]
    assert len(series) == 16                      # t = 0, 10, ..., 150
    assert series[-1][1] > 0.5                    # ring mostly repaired


@pytest.mark.determinism
def test_combined_scenario_is_deterministic_for_fixed_seed():
    first = churn_crash_partition_spec(seed=7).run()
    second = churn_crash_partition_spec(seed=7).run()
    assert first.metrics == second.metrics
    assert first.series == second.series
    assert first.events == second.events
    # And the scenario actually exercised every fault path.
    assert first.metrics["nodes.crashes"] > 0
    assert first.metrics["nodes.recoveries"] > 0


@pytest.mark.determinism
def test_combined_scenario_diverges_across_seeds():
    assert churn_crash_partition_spec(seed=1).run().metrics != \
        churn_crash_partition_spec(seed=2).run().metrics


# ----------------------------------------------------------------------- runner
def test_runner_aggregates_metrics_across_seeds():
    spec = ScenarioSpec(
        name="runner", agents=[chord_agent()], num_nodes=6, duration=60.0,
        failure_config=FAST_FAILURE,
        models=(ChurnModel(join="staggered", join_spacing=0.25),
                WorkloadModel(kind="route", source=-1, start=20.0,
                              packets=20, gap=1.0)),
    )
    summary = ScenarioRunner(spec, seeds=[1, 2, 3]).run()
    assert [result.seed for result in summary.results] == [1, 2, 3]
    stats = summary.metric("workload.success_ratio")
    assert stats.count == 3
    assert stats.minimum <= stats.mean <= stats.maximum
    assert stats.minimum <= stats.p50 <= stats.maximum
    assert "workload.success_ratio" in summary.table()
    with pytest.raises(KeyError):
        summary.metric("no.such.metric")


def test_runner_requires_seeds():
    spec = churn_crash_partition_spec()
    with pytest.raises(ValueError):
        ScenarioRunner(spec, seeds=[])


def test_summary_stats_from_values():
    stats = SummaryStats.from_values([1.0, 2.0, 3.0, 4.0])
    assert stats.mean == pytest.approx(2.5)
    assert stats.minimum == 1.0 and stats.maximum == 4.0
    assert stats.stddev == pytest.approx(1.11803, rel=1e-4)
    empty = SummaryStats.from_values([])
    assert empty.count == 0 and empty.mean == 0.0
