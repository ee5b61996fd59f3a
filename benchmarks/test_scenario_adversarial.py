"""Overlay behaviour under the curated adversarial scenarios.

The paper's robustness claim is that generated overlays keep working through
joins, failures, and recovery; the adversarial library pushes past the
benign-churn benchmark into the stress patterns real deployments see —
flash crowds and flapping one-directional partitions.  Two library entries
are exercised here:

* **flash-crowd** — registry-compiled Chord absorbs a Poisson burst of
  arrivals against a small warm core, with route probes running through the
  wave;
* **scribe-flapping** — Scribe-over-Pastry multicast while the stub-domain
  uplinks flap as directed (one-way) cuts, repeatedly blackholing the path
  toward the rendezvous point.

Qualitative assertions: the faults actually bite (join burst happened,
directed cuts dropped packets), every runtime invariant holds at the end,
and delivery stays high because the protocols repair themselves.
"""

from __future__ import annotations

from repro.eval import ScenarioRunner, check_invariants, library_spec
from repro.eval.metrics import ring_successor_correctness
from repro.eval.reports import format_table

SEEDS = (1, 2, 3)


def test_flash_crowd_chord_converges_and_serves_lookups(once):
    summary = once(lambda: ScenarioRunner(library_spec("flash-crowd"),
                                          seeds=SEEDS).run())

    success = summary.metric("workload.success_ratio")
    print()
    print(format_table(
        ["metric", "mean", "min"],
        [("lookup success", f"{success.mean:.3f}", f"{success.minimum:.3f}"),
         ("crowd joins", f"{summary.metric('flashcrowd.crowd').mean:.0f}",
          f"{summary.metric('flashcrowd.crowd').minimum:.0f}")],
        title=f"Chord flash crowd, seeds {list(SEEDS)}"))

    # The burst happened: 8 crowd nodes joined on top of the 4-node core.
    assert summary.metric("flashcrowd.crowd").minimum == 8
    # Lookups keep succeeding through the arrival wave.
    assert success.minimum > 0.80
    for result in summary.results:
        # No invariant violations, and the ring absorbed the crowd.
        assert check_invariants(result) == []
        assert ring_successor_correctness(result.experiment.nodes) >= 0.8


def test_scribe_multicast_survives_flapping_directed_cuts(once):
    def run():
        return [library_spec("scribe-flapping", seed=seed).run()
                for seed in SEEDS]

    results = once(run)

    for result in results:
        # The directed cuts actually fired (two cycles, cut + heal each).
        cut_events = [detail for _, kind, detail in result.events
                      if kind == "link-cut"]
        assert len(cut_events) == 4
        assert all("->" in detail for detail in cut_events)
        # The tree repairs around the flapping uplinks: multicast delivery
        # stays high and every invariant holds at the end.
        assert result.metrics["workload.success_ratio"] > 0.80
        assert result.metrics["workload.duplicates"] == 0
        assert check_invariants(result) == []
