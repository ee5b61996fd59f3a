"""Figure 9: NICE overlay end-to-end latency per site (64 members).

Same run as Figure 8, different y-axis: the absolute overlay latency from the
source to members of each site, which the paper reports as roughly 10–40 ms
across the eight sites.  The run is the same shape of
:class:`ScenarioSpec` as Figure 8's, on its own seed.
"""

from __future__ import annotations

from repro.eval import (ChurnModel, ScenarioSpec, Stack, WorkloadModel,
                        group_by_site, mean)
from repro.eval.reports import format_table
from repro.network import multi_site_topology

#: Published per-site latencies (ms) from the NICE paper's Figure 16, for the
#: side-by-side column.
NICE_SIGCOMM_LATENCY_MS = [12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 38.0, 42.0]

MEMBERS_PER_SITE = 8
NUM_SITES = 8
CONVERGENCE = 180.0
PACKETS, GAP, SETTLE = 5, 0.5, 20.0


def latency_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig09-nice-latency",
        agents=Stack("nice"),
        num_nodes=MEMBERS_PER_SITE * NUM_SITES,
        duration=CONVERGENCE + PACKETS * GAP + SETTLE,
        seed=91,
        topology=multi_site_topology([MEMBERS_PER_SITE] * NUM_SITES, seed=91,
                                     name="nice-8-sites-latency"),
        models=(ChurnModel(join="immediate"),
                WorkloadModel(kind="multicast", source=0, group=1,
                              start=CONVERGENCE, packets=PACKETS, gap=GAP)),
    )


def build_and_measure():
    spec = latency_spec()
    topology = spec.topology
    experiment = spec.run().experiment
    source = experiment.nodes[0]
    per_receiver = experiment.compiled_models[-1].observations.per_receiver
    latencies = {address: mean(values)
                 for address, values in per_receiver.items()
                 if address != source.address}
    site_of = {node.address: topology.client_sites.get(node.host.topology_node, 0)
               for node in experiment.nodes}
    per_site = group_by_site(latencies, site_of)
    return per_site


def test_fig09_spec_is_a_value(stack_value):
    assert stack_value(latency_spec()) == (True, None)


def test_fig09_nice_latency_distribution(once):
    per_site = once(build_and_measure)

    rows = []
    for site in range(NUM_SITES):
        values_ms = [value * 1000 for value in per_site.get(site, [])]
        rows.append((site, len(values_ms), f"{mean(values_ms):.1f}",
                     f"{NICE_SIGCOMM_LATENCY_MS[site]:.1f}"))
    print()
    print(format_table(["site", "members", "latency ms (MACEDON)",
                        "latency ms (SIGCOMM)"], rows,
                       title="Figure 9 — NICE overlay latency per site"))

    all_ms = [value * 1000 for values in per_site.values() for value in values]
    assert all_ms, "no latency samples collected"
    # Paper's range: tens of milliseconds, not seconds, and not microseconds.
    assert 1.0 < mean(all_ms) < 500.0
    # Latency must exceed the best possible single LAN hop (~1 ms).
    assert min(all_ms) >= 1.0
