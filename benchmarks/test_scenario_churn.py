"""Lookup success under churn, on the generated Chord specification.

The paper's evaluation argues MACEDON overlays keep working "through joins,
failures, and recovery"; this benchmark quantifies that for the DHT routing
path: registry-compiled Chord (``specs/chord.mac``) serves random-key
lookups while 10% of the membership fail-stops and rejoins (plus a no-churn
control), executed by the scenario engine across three seeds and aggregated
by :class:`ScenarioRunner`.

Qualitative assertions (churn-path performance is timed by the
``chord_kv_churn`` workload of ``bench/``):

* without churn, a converged ring serves essentially every lookup;
* under 10% churn, success degrades but stays above 60% — repairs (failure
  detection, successor promotion, finger pruning, rejoin) keep the overlay
  routable;
* Chord's successor pointers re-converge by the end of the run.
"""

from __future__ import annotations

from repro.eval import (ChurnModel, ScenarioRunner, ScenarioSpec, Stack,
                        WorkloadModel)
from repro.eval.metrics import ring_successor_correctness
from repro.eval.reports import format_table
from repro.runtime.failure import FailureDetectorConfig

NUM_NODES = 20
DURATION = 240.0
CHURN_FRACTION = 0.10
SEEDS = (1, 2, 3)

FAILURE = FailureDetectorConfig(failure_timeout=10.0, heartbeat_timeout=4.0,
                                check_interval=1.0)


def churn_spec(churn_fraction: float) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"chord-churn-{int(churn_fraction * 100)}pct",
        agents=Stack("chord"),
        num_nodes=NUM_NODES,
        duration=DURATION,
        failure_config=FAILURE,
        models=(
            ChurnModel(join="staggered", join_spacing=0.5,
                       churn_fraction=churn_fraction,
                       churn_start=60.0, churn_end=200.0, downtime=15.0),
            WorkloadModel(kind="route", source=-1, start=40.0,
                          packets=120, gap=1.5),
        ),
    )


def test_scenario_lookup_success_under_churn(once):
    def run():
        control = ScenarioRunner(churn_spec(0.0), seeds=SEEDS).run()
        churny = ScenarioRunner(churn_spec(CHURN_FRACTION), seeds=SEEDS).run()
        return control, churny

    control, churny = once(run)

    rows = []
    for summary in (control, churny):
        success = summary.metric("workload.success_ratio")
        latency = summary.metric("workload.latency_mean")
        rows.append((summary.name, f"{success.mean:.3f}", f"{success.stddev:.3f}",
                     f"{latency.mean * 1000:.1f}",
                     f"{summary.metric('nodes.crashes').mean:.1f}"))
    print()
    print(format_table(
        ["scenario", "lookup success", "stddev", "latency ms", "crashes"],
        rows, title=f"Chord lookups, {NUM_NODES} nodes, seeds {list(SEEDS)}"))

    assert len(control.results) == len(SEEDS)
    assert len(churny.results) == len(SEEDS)

    control_success = control.metric("workload.success_ratio")
    churn_success = churny.metric("workload.success_ratio")
    # A converged, churn-free overlay serves essentially everything.
    assert control_success.minimum > 0.95
    # Churn hurts, but repair keeps the overlay routable.
    assert churn_success.mean <= control_success.mean
    assert churn_success.mean > 0.60
    # Churn actually happened (10% of 19 non-bootstrap nodes, each run).
    assert churny.metric("nodes.crashes").minimum >= 1
    # The ring repairs itself by the end of every seeded run.
    for result in churny.results:
        assert ring_successor_correctness(result.experiment.nodes) >= 0.8
