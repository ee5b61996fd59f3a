"""Sim-vs-live differential harness.

The paper's central claim is that one MACEDON specification produces the
same protocol in simulation and in live deployment.  This module turns that
claim into a checkable artifact: :func:`run_diff` executes one
:class:`~repro.eval.scenario.ScenarioSpec` through ``repro.run(mode="sim")``
and ``repro.run(mode="live")`` across a set of seeds, compares the metric
distributions against declared per-metric tolerances, runs the invariants
on every live result, and returns a machine-readable :class:`DiffReport`
(schema ``repro.diff/1``).

What "agree" means here: a live run draws the simulation's schedule — the
same joins, ops and faults at the same spec instants, with protocol timers
and the failure detector on the same spec clock, ``time_scale`` wall seconds
to the spec second — but does not replay its packets: the kernel schedules
them — so the harness compares *seed-averaged metric means*, not event
logs.  Each :class:`Tolerance` declares how far the live mean may sit
from the sim mean before the divergence is drift worth failing on:
``abs`` bounds the absolute gap, ``rel`` (optional) additionally allows a
fraction of the sim mean, and ``direction`` can restrict which side of the
sim value is a violation (live latency being *lower* than simulated latency
is not a bug).  A metric missing from a side does not vote: the report lists
it under ``unvoted``.  Values on one side only fail the report, since one
scorer writes both sides; a metric neither side emits (a route workload has
no ``quorum_success``) fails only when the tolerance marks it
``required``.

The comparison is deliberately asymmetric in what it trusts: invariant
violations on the live side are failures regardless of tolerances — a
duplicate delivery "within tolerance" is still a duplicate delivery.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

ARTIFACT_SCHEMA = "repro.diff/1"


@dataclass(frozen=True)
class Tolerance:
    """How far the live mean of one metric may drift from the sim mean."""

    metric: str
    #: Absolute allowance: |live - sim| <= abs (+ rel * |sim|) passes.
    abs: float
    #: Optional relative allowance, a fraction of the sim mean.
    rel: float = 0.0
    #: "both" (default) fails on either side; "live_below" only when live
    #: undershoots sim; "live_above" only when it overshoots.
    direction: str = "both"
    #: Fail if the metric is missing from either side's results.
    required: bool = False

    def allowance(self, sim_mean: float) -> float:
        return self.abs + self.rel * abs(sim_mean)

    def violated_by(self, sim_mean: float, live_mean: float) -> bool:
        delta = live_mean - sim_mean
        if self.direction == "live_below" and delta >= 0:
            return False
        if self.direction == "live_above" and delta <= 0:
            return False
        return abs(delta) > self.allowance(sim_mean)


#: Default ruler for the library protocols: loose enough for a compressed
#: timeline and kernel-scheduled packet orders, tight enough
#: that a broken live transport (or a sim-only protocol bug) trips it.
DEFAULT_TOLERANCES: tuple[Tolerance, ...] = (
    Tolerance("workload.success_ratio", abs=0.15, required=True),
    Tolerance("workload.post_fault_success_ratio", abs=0.15),
    Tolerance("ring.correct_successor_fraction", abs=0.25),
    Tolerance("workload.quorum_success", abs=0.15),
    # Fabricated data is fabricated data in either mode.
    Tolerance("workload.phantom_reads", abs=0.0),
    Tolerance("workload.duplicates", abs=0.0),
    Tolerance("workload.coverage", abs=0.2),
)


@dataclass(frozen=True)
class MetricDiff:
    """One metric's two distributions and the verdict."""

    metric: str
    sim_mean: float
    live_mean: float
    delta: float
    allowance: float
    ok: bool
    sim_values: tuple = ()
    live_values: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DiffReport:
    """The harness's verdict: per-metric diffs plus live invariant checks."""

    spec_name: str
    seeds: tuple
    diffs: list = field(default_factory=list)
    #: Tolerances marked required whose metric one side never produced.
    missing: list = field(default_factory=list)
    #: ``(metric, side)`` of every tolerance that did not vote: its metric
    #: had values only on ``side`` ("sim" or "live"), or on "neither".
    unvoted: list = field(default_factory=list)
    #: Stringified live InvariantViolations, tagged with their seed.
    violations: list = field(default_factory=list)

    @property
    def drifted(self) -> list:
        return [diff for diff in self.diffs if not diff.ok]

    @property
    def one_sided(self) -> list:
        """Metrics with values on exactly one side."""
        return [metric for metric, side in self.unvoted if side != "neither"]

    @property
    def ok(self) -> bool:
        return not (self.drifted or self.missing or self.one_sided
                    or self.violations)

    def to_dict(self) -> dict:
        return {
            "schema": ARTIFACT_SCHEMA,
            "spec": self.spec_name,
            "seeds": list(self.seeds),
            "ok": self.ok,
            "diffs": [diff.to_dict() for diff in self.diffs],
            "missing": list(self.missing),
            "unvoted": [{"metric": metric, "values_on": side}
                        for metric, side in self.unvoted],
            "violations": list(self.violations),
        }

    def summary(self) -> str:
        lines = [f"diff {self.spec_name}: "
                 f"{'OK' if self.ok else 'DRIFT'} over seeds "
                 f"{list(self.seeds)}"]
        for diff in self.diffs:
            marker = "ok  " if diff.ok else "FAIL"
            lines.append(
                f"  [{marker}] {diff.metric}: sim={diff.sim_mean:.4f} "
                f"live={diff.live_mean:.4f} delta={diff.delta:+.4f} "
                f"(allowed ±{diff.allowance:.4f})")
        for metric, side in self.unvoted:
            if metric in self.missing:
                lines.append(f"  [FAIL] {metric}: required metric missing "
                             f"(values on {side})")
            elif side != "neither":
                lines.append(f"  [FAIL] {metric}: values on {side} only")
            else:
                lines.append(f"  [skip] {metric}: did not vote "
                             f"(values on {side})")
        for violation in self.violations:
            lines.append(f"  [FAIL] invariant: {violation}")
        return "\n".join(lines)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def compare(sim_metrics: Sequence[dict], live_metrics: Sequence[dict],
            tolerances: Sequence[Tolerance] = DEFAULT_TOLERANCES,
            *, spec_name: str = "", seeds: Sequence = ()) -> DiffReport:
    """Pure comparison of per-seed metric dicts (no execution).

    ``sim_metrics`` / ``live_metrics`` are parallel lists of per-run metric
    dictionaries; a metric enters the comparison only for runs that emitted
    it (a seed whose fault schedule left no post-fault probes simply does
    not vote on ``post_fault_success_ratio``).
    """
    report = DiffReport(spec_name=spec_name, seeds=tuple(seeds))
    for tolerance in tolerances:
        sim_values = tuple(metrics[tolerance.metric]
                           for metrics in sim_metrics
                           if tolerance.metric in metrics)
        live_values = tuple(metrics[tolerance.metric]
                            for metrics in live_metrics
                            if tolerance.metric in metrics)
        if not sim_values or not live_values:
            side = ("sim" if sim_values else "live" if live_values
                    else "neither")
            report.unvoted.append((tolerance.metric, side))
            if tolerance.required:
                report.missing.append(tolerance.metric)
            continue
        sim_mean = _mean(sim_values)
        live_mean = _mean(live_values)
        report.diffs.append(MetricDiff(
            metric=tolerance.metric,
            sim_mean=sim_mean,
            live_mean=live_mean,
            delta=live_mean - sim_mean,
            allowance=tolerance.allowance(sim_mean),
            ok=not tolerance.violated_by(sim_mean, live_mean),
            sim_values=sim_values,
            live_values=live_values,
        ))
    return report


def run_diff(spec, *, seeds: Sequence[int] = (1,),
             tolerances: Sequence[Tolerance] = DEFAULT_TOLERANCES,
             live_overrides: Optional[dict] = None) -> DiffReport:
    """Run *spec* in both modes across *seeds* and diff the results.

    Each seed gets one simulation run and one live deployment of the
    re-seeded spec; an invariant violation in any seed's live run fails the
    report.  ``live_overrides`` pass through to the live config (a CI
    runner will at least want ``base_port`` to keep parallel jobs apart).
    """
    from dataclasses import replace

    from .. import facade
    from .invariants import check_invariants

    sim_metrics: list[dict] = []
    live_metrics: list[dict] = []
    report = DiffReport(spec_name=spec.name, seeds=tuple(seeds))
    for seed in seeds:
        seeded = replace(spec, seed=seed)
        sim_result = facade.run(seeded)
        sim_metrics.append(dict(sim_result.metrics))
        live_result = facade.run(seeded, mode="live",
                                 **dict(live_overrides or {}))
        live_metrics.append(dict(live_result.metrics))
        for violation in check_invariants(live_result):
            report.violations.append(f"seed {seed}: {violation}")
    compared = compare(sim_metrics, live_metrics, tolerances,
                       spec_name=spec.name, seeds=seeds)
    report.diffs = compared.diffs
    report.missing = compared.missing
    report.unvoted = compared.unvoted
    return report
