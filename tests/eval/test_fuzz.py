"""Tests for the scenario fuzzer, its serialisation, shrinking, and the
curated scenario library."""

from __future__ import annotations

import json

import pytest

from repro.eval import ScenarioError, ScenarioRunner
from repro.eval.fuzz import (
    FuzzConfig,
    fuzz,
    generate_spec,
    model_from_dict,
    protocol_name_of,
    replay_artifact,
    run_case,
    shrink,
    spec_from_dict,
    spec_to_dict,
)
from repro.eval.library import (
    LIBRARY,
    PROTOCOLS,
    library_entry,
    library_spec,
    resolve_protocol,
)
from repro.eval.scenario import ScenarioResult, WorkloadModel
from repro.protocols import chord_agent


class DoubleDeliverAgent(chord_agent()):
    """Generated Chord with a seeded duplicate-delivery bug, for fuzzer tests."""

    def route_data(self, target, payload, size, hops, sender=None):
        if self.owns_key(target):
            self.upcall_deliver(payload, size, "data")
        super().route_data(target, payload, size, hops, sender)


@pytest.fixture
def buggy_protocol():
    PROTOCOLS["chord-dupbug"] = (DoubleDeliverAgent,)
    try:
        yield "chord-dupbug"
    finally:
        del PROTOCOLS["chord-dupbug"]


#: Small bounds keep fuzz tests fast; min_duration must still clear the
#: settle-window validation.
def small_config(**overrides) -> FuzzConfig:
    defaults = dict(protocols=("chord",), min_nodes=4, max_nodes=6,
                    min_duration=150.0, max_duration=160.0,
                    max_fault_models=1, max_shrink_runs=8)
    defaults.update(overrides)
    return FuzzConfig(**defaults)


# -------------------------------------------------------------------- grammar
def test_generate_spec_is_deterministic():
    config = small_config()
    first = generate_spec(1234, config)
    second = generate_spec(1234, config)
    assert first == second
    assert generate_spec(1235, config) != first


def test_generate_spec_respects_bounds_and_settle_window():
    config = small_config()
    for seed in range(30):
        spec = generate_spec(seed, config)
        assert config.min_nodes <= spec.num_nodes <= config.max_nodes
        assert config.min_duration <= spec.duration <= config.max_duration
        assert spec.seed == seed
        assert any(isinstance(m, WorkloadModel) for m in spec.models)
        # Compiles cleanly: every target valid at build time.
        spec.build()


def test_fuzz_config_validation():
    with pytest.raises(ScenarioError, match="unknown protocol"):
        FuzzConfig(protocols=("definitely-not-a-protocol",))
    with pytest.raises(ScenarioError, match="settle"):
        FuzzConfig(min_duration=60.0)
    with pytest.raises(ScenarioError, match="at least one protocol"):
        FuzzConfig(protocols=())


# -------------------------------------------------------------- serialisation
def test_spec_roundtrips_through_dict():
    config = small_config()
    for seed in (7, 77, 777):
        spec = generate_spec(seed, config)
        data = json.loads(json.dumps(spec_to_dict(spec)))
        restored = spec_from_dict(data)
        assert restored == spec


def test_library_specs_roundtrip_through_dict():
    for entry in LIBRARY:
        spec = entry.spec(seed=3)
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored == spec
        assert protocol_name_of(spec) == entry.protocol


def test_unregistered_agents_do_not_serialise():
    spec = library_spec("flash-crowd").__class__(
        name="adhoc", agents=[chord_agent()], num_nodes=4, duration=60.0)
    with pytest.raises(ScenarioError, match="not a registered protocol"):
        spec_to_dict(spec)


def test_model_from_dict_rejects_unknown_types_and_fields():
    with pytest.raises(ScenarioError, match="unknown scenario model"):
        model_from_dict({"model": "NotAModel"})
    with pytest.raises(ScenarioError, match="unknown fields"):
        model_from_dict({"model": "ChurnModel", "bogus_knob": 1})


# ------------------------------------------------------------------ execution
def test_clean_case_has_no_violations():
    config = small_config()
    assert run_case(generate_spec(5, config), config) == []


def test_fuzz_catches_shrinks_and_replays_seeded_bug(buggy_protocol,
                                                     tmp_path):
    """The acceptance loop: an intentionally seeded invariant violation is
    caught, shrunk to a smaller spec, and replays from the artifact."""
    config = small_config(protocols=(buggy_protocol,))
    report = fuzz(1, 42, config=config, artifact_dir=tmp_path)
    assert not report.ok
    (failure,) = report.failures
    assert {v.invariant for v in failure.violations} == \
        {"no_duplicate_delivery"}
    # Shrinking produced a confirmed reproduction no bigger than the original.
    original = generate_spec(failure.case_seed, config)
    assert len(failure.spec.models) <= len(original.models)
    assert failure.spec.num_nodes <= original.num_nodes
    # The artifact replays deterministically.
    assert failure.artifact is not None and failure.artifact.exists()
    payload = json.loads(failure.artifact.read_text())
    assert payload["schema"] == "repro.fuzz/1"
    assert payload["seed"] == failure.case_seed
    violations = replay_artifact(failure.artifact, config)
    assert {v.invariant for v in violations} == {"no_duplicate_delivery"}


def test_shrink_keeps_violated_invariant_set(buggy_protocol):
    config = small_config(protocols=(buggy_protocol,), max_shrink_runs=6)
    spec = generate_spec(9, config)
    violations = run_case(spec, config)
    assert violations
    shrunk, shrunk_violations = shrink(spec, violations, config)
    assert {v.invariant for v in shrunk_violations} == \
        {v.invariant for v in violations}
    # The shrunk spec is re-runnable standalone (it is what the artifact holds).
    assert run_case(shrunk, config)


def test_crashed_case_fails_campaign_with_artifact(tmp_path, monkeypatch):
    """An unhandled exception inside a case is captured as a failure (with
    its traceback and a replay artifact), and the campaign cannot report ok."""
    import sys
    fuzz_module = sys.modules["repro.eval.fuzz"]

    def explode(spec, config):
        raise RuntimeError("seeded crash for test")

    monkeypatch.setattr(fuzz_module, "run_case", explode)
    report = fuzz(2, 1, config=small_config(), artifact_dir=tmp_path)
    assert not report.ok
    assert len(report.failures) == 2
    for failure in report.failures:
        assert failure.violations == []
        assert "seeded crash for test" in failure.error
        payload = json.loads(failure.artifact.read_text())
        assert "seeded crash for test" in payload["error"]


def test_parallel_jobs_match_serial_campaign(buggy_protocol):
    config = small_config(protocols=(buggy_protocol,), max_shrink_runs=2)
    serial = fuzz(3, 11, config=config)
    forked = fuzz(3, 11, config=config, jobs=2)
    assert [f.case_seed for f in serial.failures] == \
        [f.case_seed for f in forked.failures]
    assert [spec_to_dict(f.spec) for f in serial.failures] == \
        [spec_to_dict(f.spec) for f in forked.failures]


def test_fuzz_campaign_is_deterministic(buggy_protocol):
    config = small_config(protocols=(buggy_protocol,), max_shrink_runs=2)
    first = fuzz(2, 11, config=config)
    second = fuzz(2, 11, config=config)
    assert [f.case_seed for f in first.failures] == \
        [f.case_seed for f in second.failures]
    assert [spec_to_dict(f.spec) for f in first.failures] == \
        [spec_to_dict(f.spec) for f in second.failures]


# -------------------------------------------------------------------- library
def test_library_entries_build_valid_specs():
    for entry in LIBRARY:
        spec = entry.spec(seed=1)
        assert spec.name == entry.name
        spec.build()   # compile-time validation of every model target


def test_library_lookup_errors_name_the_choices():
    with pytest.raises(ScenarioError, match="flash-crowd"):
        library_entry("no-such-scenario")
    with pytest.raises(ScenarioError, match="scribe-pastry"):
        resolve_protocol("no-such-protocol")
    # The hand-written ring stand-in is gone, and no alias maps its name.
    with pytest.raises(ScenarioError, match="unknown protocol 'ringdht'"):
        resolve_protocol("ringdht")


def test_library_spec_runs_deterministically():
    first = library_spec("rack-failure", seed=2).run()
    second = library_spec("rack-failure", seed=2).run()
    assert first.metrics == second.metrics
    assert first.events == second.events


# ------------------------------------------------------- runner union metrics
class _FakeSeededSpec:
    """Duck-typed spec whose metric keys depend on the seed, to pin the
    runner's union-aggregation behaviour."""

    name = "union"

    def __init__(self, seed=0):
        self.seed = seed

    def with_seed(self, seed):
        return _FakeSeededSpec(seed)

    def run(self):
        metrics = {"always": float(self.seed)}
        if self.seed % 2:
            metrics["odd_seeds_only"] = 1.0
        return ScenarioResult(name=self.name, seed=self.seed, duration=1.0,
                              metrics=metrics, series={}, events=[])


def test_runner_aggregates_union_of_seed_dependent_metrics():
    summary = ScenarioRunner(_FakeSeededSpec(), seeds=[1, 2, 3]).run()
    assert summary.metric("always").count == 3
    odd = summary.metric("odd_seeds_only")
    assert odd.count == 2          # seeds 1 and 3 reported it; 2 did not
    assert odd.mean == 1.0


def test_runner_forked_jobs_match_serial():
    serial = ScenarioRunner(_FakeSeededSpec(), seeds=[1, 2, 3]).run()
    forked = ScenarioRunner(_FakeSeededSpec(), seeds=[1, 2, 3], jobs=2).run()
    for key in ("always", "odd_seeds_only"):
        assert forked.metric(key).count == serial.metric(key).count
        assert forked.metric(key).mean == serial.metric(key).mean


def test_runner_rejects_bad_parallelism_arguments():
    with pytest.raises(ValueError):
        ScenarioRunner(_FakeSeededSpec(), seeds=[1], jobs=0)


#: ``_shrink_candidates`` of the spec in the test below, as changes: every
#: non-workload model dropped, the population halved, then each model's
#: weakenings in model order.
PINNED_SHRINK = [
    ("drop", 0), ("drop", 1), ("drop", 2), ("drop", 3), ("drop", 4),
    ("drop", 5), ("drop", 6), ("drop", 7), ("drop", 8), ("drop", 9),
    ("num_nodes", 6),
    (0, {"churn_fraction": 0.2}),
    (2, {"stay": None}),
    (2, {"burst_rate": 4.0}),
    (4, {"racks": 1}),
    (6, {"cycles": 1}),
    (6, {"links": ((10, 0),)}),
    (7, {"latency_factor": 2.5}),
    (7, {"bandwidth_factor": 0.6}),
    (7, {"links": ((10, 0),)}),
    (10, {"packets": 12}),
    (10, {"repair_gap": 0.0}),
]


def _candidate_diffs(spec, candidates):
    """Each shrink candidate as what it changed in *spec*."""
    diffs = []
    for candidate in candidates:
        if candidate.num_nodes != spec.num_nodes:
            diffs.append(("num_nodes", candidate.num_nodes))
            continue
        padded = candidate.models + (None,)
        index = next(index for index, model in enumerate(spec.models)
                     if padded[index] != model)
        if len(candidate.models) < len(spec.models):
            diffs.append(("drop", index))
            continue
        old, new = spec.models[index], candidate.models[index]
        assert candidate.models[index + 1:] == spec.models[index + 1:]
        diffs.append((index, {name: value for name, value in vars(new).items()
                              if value != getattr(old, name)}))
    return diffs


def test_shrink_candidates_are_pinned_for_every_model_kind():
    """Each model weakens itself, strongest reduction first; the list below
    was captured from the type-switch shrinker this replaced."""
    from repro.eval import (ChurnModel, CorrelatedCrashModel, CrashModel,
                            DegradeModel, FlappingPartitionModel,
                            FlashCrowdModel, GroupModel, PartitionModel,
                            ScenarioSpec)
    from repro.eval.fuzz import _shrink_candidates
    from repro.eval.library import STUB_UPLINK_EDGES

    spec = ScenarioSpec(
        name="every-kind", agents=[chord_agent()], num_nodes=12,
        duration=160.0,
        models=(
            ChurnModel(churn_fraction=0.4),
            ChurnModel(churn_fraction=0.1),
            FlashCrowdModel(stay=5.0, burst_rate=8.0),
            CrashModel(at=20.0, victims=(3,)),
            CorrelatedCrashModel(racks=3),
            PartitionModel(at=30.0, groups=((1, 2),)),
            FlappingPartitionModel(cycles=3, links=STUB_UPLINK_EDGES),
            DegradeModel(links=STUB_UPLINK_EDGES, latency_factor=4.0,
                         bandwidth_factor=0.3),
            DegradeModel(links=STUB_UPLINK_EDGES[:1], latency_factor=2.0),
            GroupModel(group=2),
            WorkloadModel(kind="kv", packets=25, repair_gap=5.0),
            WorkloadModel(kind="route", packets=10, repair_gap=5.0),
        ))
    assert _candidate_diffs(spec, _shrink_candidates(spec)) == PINNED_SHRINK
