"""The sim-vs-live differential harness: tolerances, compare, run_diff."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.eval.diff import (ARTIFACT_SCHEMA, DEFAULT_TOLERANCES, Tolerance,
                             compare, run_diff)


def test_tolerance_allowance_and_direction():
    tolerance = Tolerance("m", abs=0.1, rel=0.5)
    assert tolerance.allowance(0.8) == pytest.approx(0.1 + 0.4)
    assert not tolerance.violated_by(0.8, 0.4)
    assert tolerance.violated_by(0.8, 0.2)

    below_only = Tolerance("m", abs=0.1, direction="live_below")
    assert below_only.violated_by(0.9, 0.7)       # undershoot beyond 0.1
    assert not below_only.violated_by(0.5, 0.9)   # overshoot never fails
    above_only = Tolerance("m", abs=0.1, direction="live_above")
    assert above_only.violated_by(0.5, 0.7)
    assert not above_only.violated_by(0.9, 0.2)

    exact = Tolerance("m", abs=0.0)
    assert not exact.violated_by(0.0, 0.0)
    assert exact.violated_by(0.0, 1e-6)


def test_compare_means_per_seed_distributions():
    tolerances = (Tolerance("workload.success_ratio", abs=0.1, required=True),)
    report = compare(
        [{"workload.success_ratio": 0.9}, {"workload.success_ratio": 1.0}],
        [{"workload.success_ratio": 0.88}, {"workload.success_ratio": 0.92}],
        tolerances, spec_name="demo", seeds=(1, 2))
    assert report.ok
    (diff,) = report.diffs
    assert diff.sim_mean == pytest.approx(0.95)
    assert diff.live_mean == pytest.approx(0.90)
    assert diff.delta == pytest.approx(-0.05)
    assert diff.sim_values == (0.9, 1.0)

    drifted = compare([{"workload.success_ratio": 0.95}],
                      [{"workload.success_ratio": 0.7}], tolerances)
    assert not drifted.ok
    assert [d.metric for d in drifted.drifted] == ["workload.success_ratio"]


def test_compare_skips_absent_metrics_unless_required():
    tolerances = (Tolerance("a", abs=0.1),
                  Tolerance("b", abs=0.1, required=True))
    report = compare([{"b": 1.0}], [{"b": 1.0}], tolerances)
    assert report.ok and [d.metric for d in report.diffs] == ["b"]
    # A skipped tolerance is still named: an OK that compared fewer metrics
    # than it declares says so.
    assert report.unvoted == [("a", "neither")]
    assert "[skip] a: did not vote (values on neither)" in report.summary()

    report = compare([{"a": 1.0}], [{"a": 1.0}], tolerances)
    assert not report.ok and report.missing == ["b"]
    assert report.unvoted == [("b", "neither")]

    # A metric only one mode emits (the live ring fraction) never votes.
    report = compare([{"b": 1.0}], [{"a": 0.5, "b": 1.0}], tolerances)
    assert report.ok and report.unvoted == [("a", "live")]
    assert report.to_dict()["unvoted"] == [{"metric": "a",
                                            "values_on": "live"}]
    report = compare([{"a": 0.5, "b": 1.0}], [{"b": 1.0}], tolerances)
    assert report.unvoted == [("a", "sim")]
    assert "[skip] a: did not vote (values on sim)" in report.summary()

    # Only the runs that emitted a metric vote on it: seed 2's live run had
    # no post-fault probes, so seed 1 alone decides.
    report = compare([{"a": 0.9}, {"a": 0.9}],
                     [{"a": 0.85}, {}],
                     (Tolerance("a", abs=0.1),))
    assert report.ok and report.unvoted == []
    assert report.diffs[0].live_values == (0.85,)


def test_report_document_and_summary():
    report = compare([{"x": 1.0}], [{"x": 0.2}],
                     (Tolerance("x", abs=0.1),
                      Tolerance("y", abs=0.1, required=True)),
                     spec_name="doc", seeds=(4,))
    document = report.to_dict()
    assert document["schema"] == ARTIFACT_SCHEMA
    assert document["spec"] == "doc" and document["seeds"] == [4]
    assert document["ok"] is False
    assert document["diffs"][0]["metric"] == "x"
    assert document["missing"] == ["y"]
    text = report.summary()
    assert "DRIFT" in text and "[FAIL] x:" in text
    assert "y: required metric missing" in text


def test_default_tolerances_gate_fabricated_data_exactly():
    by_metric = {t.metric: t for t in DEFAULT_TOLERANCES}
    assert by_metric["workload.success_ratio"].required
    assert by_metric["workload.phantom_reads"].abs == 0.0
    assert by_metric["workload.duplicates"].abs == 0.0


def test_kv_spec_meets_the_required_success_ratio_on_both_sides():
    """A kv run reports ``workload.success_ratio`` (its quorum success) in
    every mode, because one scorer writes both sides: the default ruler's
    required metric is no longer structurally missing from kv diffs."""
    from repro.eval.library import resolve_protocol
    from repro.eval.scenario import (ChurnModel, ScenarioSpec, WorkloadModel,
                                     score_models)

    model = WorkloadModel(kind="kv", start=25.0, packets=12, gap=1.0, keys=8,
                          read_fraction=0.5)
    result = ScenarioSpec(
        name="diff-kv", agents=resolve_protocol("chord"), num_nodes=6,
        duration=50.0, seed=5,
        models=(ChurnModel(join="staggered", join_spacing=0.5), model)).run()
    sim_metrics = result.metrics
    assert sim_metrics["workload.success_ratio"] \
        == sim_metrics["workload.quorum_success"] > 0.9

    # The live coordinator scores its processes' reports with the same
    # call; feed it this run's observations as two processes would ship them.
    compiled = result.experiment.compiled_models
    payload = compiled[-1].shard_payload()
    halves = [dict(payload, records=payload["records"][0::2], stores=[]),
              dict(payload, records=payload["records"][1::2], sent=[],
                   skipped=0)]
    live_metrics = score_models(
        compiled, [{"models": {"workload": half}} for half in halves])
    # Pooling is a disjoint union: the halves score what the whole did.
    assert live_metrics.items() <= sim_metrics.items()

    report = compare([sim_metrics], [live_metrics], spec_name="diff-kv")
    assert "workload.success_ratio" not in report.missing
    assert report.ok, report.summary()
    assert {"workload.success_ratio", "workload.quorum_success",
            "workload.phantom_reads"} <= {diff.metric for diff in report.diffs}


def test_run_diff_executes_both_modes_and_tags_violations(monkeypatch):
    @dataclass(frozen=True)
    class FakeSpec:
        name: str
        seed: int

    calls = []

    def fake_run(spec, mode="sim", **overrides):
        calls.append((spec.seed, mode, overrides))
        metrics = {"workload.success_ratio": 0.9 if mode == "sim" else 0.84}
        return SimpleNamespace(metrics=metrics)

    import repro.eval.invariants as invariants
    import repro.facade as facade
    monkeypatch.setattr(facade, "run", fake_run)
    monkeypatch.setattr(invariants, "check_invariants",
                        lambda result: ["duplicate delivery on node 3"])

    report = run_diff(FakeSpec(name="fake", seed=0), seeds=(1, 2),
                      tolerances=(Tolerance("workload.success_ratio",
                                            abs=0.15, required=True),),
                      live_overrides={"base_port": 50000})
    # Each seed ran sim then live, re-seeded, with the overrides threaded.
    assert calls == [(1, "sim", {}), (1, "live", {"base_port": 50000}),
                     (2, "sim", {}), (2, "live", {"base_port": 50000})]
    assert report.diffs[0].delta == pytest.approx(-0.06)
    assert not report.drifted
    # Invariant violations fail the report regardless of tolerances.
    assert not report.ok
    assert report.violations == ["seed 1: duplicate delivery on node 3",
                                 "seed 2: duplicate delivery on node 3"]
