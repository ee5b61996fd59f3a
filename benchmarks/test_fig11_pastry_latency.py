"""Figure 11: average latency of received Pastry packets vs. number of nodes.

The paper streams 10 Kbps of 1000-byte packets from every node to uniformly
random keys after a 300-second convergence period and reports the average
per-packet latency for MACEDON Pastry and FreePastry (RMI), for 10–250 nodes.
FreePastry's latency is far higher (the paper attributes ~80 % of the gap to
RMI overhead) and it cannot be run beyond ~100 participants.

Scaled down here: fewer node counts, shorter convergence and measurement
windows.  The assertions check the paper's shape — MACEDON much faster at
every population, and the FreePastry baseline refusing to exceed its
population cap.  Each run is one :class:`ScenarioSpec`: a staggered join,
then a route workload carrying the same packet rate as every node sending
one packet each ``INTERVAL`` seconds — ``n`` nodes' streams interleaved as
one probe every ``INTERVAL / n`` seconds from a random node.
"""

from __future__ import annotations

import pytest

from repro.baselines import FreePastryCapacityError
from repro.eval import ChurnModel, ScenarioSpec, Stack, WorkloadModel, mean
from repro.eval.reports import format_table

NODE_COUNTS = [10, 25, 50, 75]
CONVERGENCE = 80.0
MEASURE = 30.0
SETTLE = 10.0
INTERVAL = 1000 * 8 / 10_000      # 1000-byte packets at 10 Kbps per node


def latency_spec(protocol: str, num_nodes: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"fig11-{num_nodes}",
        agents=Stack(protocol),
        num_nodes=num_nodes,
        duration=CONVERGENCE + MEASURE + SETTLE,
        seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.2),
                WorkloadModel(kind="route", source=-1, start=CONVERGENCE,
                              packets=num_nodes * int(MEASURE // INTERVAL),
                              gap=INTERVAL / num_nodes)),
    )


def measure(protocol: str, num_nodes: int, seed: int) -> float:
    return latency_spec(protocol, num_nodes, seed).run().metrics[
        "workload.latency_mean"]


def test_fig11_spec_is_a_value(stack_value):
    assert stack_value(latency_spec("freepastry", 10, seed=120)) == (True, None)


def test_fig11_pastry_vs_freepastry_latency(once):
    def run():
        macedon = {}
        freepastry = {}
        for count in NODE_COUNTS:
            macedon[count] = measure("pastry", count, seed=110 + count)
            freepastry[count] = measure("freepastry", count, seed=110 + count)
        return macedon, freepastry

    macedon, freepastry = once(run)

    rows = [(count, f"{macedon[count] * 1000:.1f}", f"{freepastry[count] * 1000:.1f}")
            for count in NODE_COUNTS]
    print()
    print(format_table(["nodes", "MACEDON Pastry (ms)", "FreePastry/RMI (ms)"],
                       rows, title="Figure 11 — average per-packet latency"))

    for count in NODE_COUNTS:
        assert macedon[count] > 0
        assert freepastry[count] > 0
        # FreePastry is consistently slower; the paper reports MACEDON roughly
        # 80% lower latency (i.e. FreePastry several times higher).
        assert freepastry[count] > 1.5 * macedon[count]
    overall_ratio = mean(list(freepastry.values())) / mean(list(macedon.values()))
    assert overall_ratio > 2.0

    # FreePastry cannot be pushed past its memory ceiling (~100 participants).
    with pytest.raises(FreePastryCapacityError):
        measure("freepastry", 120, seed=999)
