#!/usr/bin/env python3
"""A full fault scenario: churn + a correlated crash + a healed partition.

Demonstrates the scenario subsystem end to end on the registry-compiled
Chord specification (specs/chord.mac): declarative fault models compiled
onto the simulator timeline, a measurement workload that keeps scoring lookups while the overlay repairs
itself, and the multi-seed runner that aggregates the results.

Run with:  python examples/churn_scenario.py
"""

from __future__ import annotations

from repro.eval import (
    ChurnModel,
    CrashModel,
    PartitionModel,
    SampleSeries,
    ScenarioRunner,
    ScenarioSpec,
    Stack,
    WorkloadModel,
)
from repro.eval.metrics import ring_successor_correctness
from repro.eval.reports import format_series
from repro.runtime.failure import FailureDetectorConfig

SPEC = ScenarioSpec(
    name="chord-under-fire",
    agents=Stack("chord"),
    num_nodes=16,
    duration=240.0,
    # Aggressive f/g so repairs happen on a demo-friendly timescale.
    failure_config=FailureDetectorConfig(failure_timeout=10.0,
                                         heartbeat_timeout=4.0,
                                         check_interval=1.0),
    models=(
        # Staggered joins, then 25% of the membership cycles out and back.
        ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.25,
                   churn_start=50.0, churn_end=180.0, downtime=15.0),
        # A correlated two-node crash with recovery half a minute later.
        CrashModel(at=90.0, victims=(5, 6), recover_after=30.0),
        # A clean half/half partition that heals after 20 seconds.
        PartitionModel(at=130.0, heal_after=20.0,
                       groups=(tuple(range(8)), tuple(range(8, 16)))),
        # Random-key lookups scored throughout.
        WorkloadModel(kind="route", source=-1, start=40.0, packets=120, gap=1.5),
    ),
    samples=(SampleSeries("succ_correctness", 10.0,
                          lambda exp: ring_successor_correctness(exp.nodes)),),
)


def main() -> None:
    # One seed in detail: the repair timeline.
    result = SPEC.run()
    print(format_series("chord successor correctness under faults",
                        result.series["succ_correctness"],
                        x_label="time s", y_label="fraction correct"))
    print("\nfault timeline:")
    for time, kind, detail in result.events:
        if kind != "route":
            print(f"  {time:7.1f}s  {kind:9s} {detail}")
    print(f"\nlookup success: {result.metrics['workload.success_ratio']:.3f} "
          f"({result.metrics['workload.sent']:.0f} probes, "
          f"{result.metrics['nodes.crashes']:.0f} crashes)")

    # Three seeds, aggregated.
    summary = ScenarioRunner(SPEC, seeds=[1, 2, 3]).run()
    success = summary.metric("workload.success_ratio")
    print(f"\nacross seeds {summary.seeds}: lookup success "
          f"{success.mean:.3f} ± {success.stddev:.3f} "
          f"(min {success.minimum:.3f}, max {success.maximum:.3f})")


if __name__ == "__main__":
    main()
