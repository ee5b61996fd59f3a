"""Figure 8: NICE stretch distribution across 8 sites (64 members).

The paper re-creates the NICE SIGCOMM topology, runs 64 members, and compares
observed per-site stretch against the published values (roughly 1–4, higher
for distant sites).  Here the 8-site topology is reconstructed with inter-site
latencies in the published range and the same measurement is taken: overlay
multicast latency from the source divided by direct IP latency, averaged per
site.  The run is one :class:`ScenarioSpec`: every member joins at t = 0,
and after ``CONVERGENCE`` seconds node 0 multicasts a short probe burst.
"""

from __future__ import annotations

from repro.eval import (ChurnModel, ScenarioSpec, WorkloadModel, group_by_site, mean,
                        stretch_samples)
from repro.eval.reports import format_table
from repro.network import multi_site_topology
from repro.protocols import nice_agent

#: Published per-site stretch from the NICE paper (Figure 15 there), eyeballed
#: from the plot; used only for side-by-side reporting.
NICE_SIGCOMM_STRETCH = [1.3, 1.6, 1.9, 2.1, 2.4, 2.8, 3.2, 3.8]

MEMBERS_PER_SITE = 8
NUM_SITES = 8
CONVERGENCE = 180.0
PACKETS, GAP, SETTLE = 5, 0.5, 20.0


def build_and_measure():
    topology = multi_site_topology([MEMBERS_PER_SITE] * NUM_SITES, seed=81,
                                   name="nice-8-sites")
    spec = ScenarioSpec(
        name="fig08-nice-stretch",
        agents=lambda: [nice_agent()],
        num_nodes=MEMBERS_PER_SITE * NUM_SITES,
        duration=CONVERGENCE + PACKETS * GAP + SETTLE,
        seed=81,
        topology=topology,
        models=(ChurnModel(join="immediate"),
                WorkloadModel(kind="multicast", source=0, group=1,
                              start=CONVERGENCE, packets=PACKETS, gap=GAP)),
    )
    experiment = spec.run().experiment
    source = experiment.nodes[0]
    per_receiver = experiment.compiled_models[-1].observations.per_receiver
    latencies = {address: mean(values)
                 for address, values in per_receiver.items()
                 if address != source.address}
    samples = stretch_samples(experiment.emulator, source.address, latencies)
    stretch_by_receiver = {s.receiver: s.stretch for s in samples}
    site_of = {}
    for node in experiment.nodes:
        site_of[node.address] = topology.client_sites.get(node.host.topology_node, 0)
    per_site = group_by_site(stretch_by_receiver, site_of)
    return per_site, latencies


def test_fig08_nice_stretch_distribution(once):
    per_site, latencies = once(build_and_measure)

    rows = []
    site_means = {}
    for site in range(NUM_SITES):
        values = per_site.get(site, [])
        site_means[site] = mean(values)
        rows.append((site, len(values), f"{mean(values):.2f}",
                     f"{NICE_SIGCOMM_STRETCH[site]:.2f}"))
    print()
    print(format_table(["site", "members", "stretch (MACEDON)", "stretch (SIGCOMM)"],
                       rows, title="Figure 8 — NICE stretch per site (64 members)"))

    measured = [value for values in per_site.values() for value in values]
    # Most members received the probe burst and produced a stretch sample.
    assert len(latencies) >= 0.8 * (MEMBERS_PER_SITE * NUM_SITES - 1)
    # The paper's range: stretch is small but above 1 (an overlay cannot beat IP
    # unicast), with per-site averages in the low single digits.
    assert all(value >= 0.99 for value in measured)
    assert mean(measured) < 8.0
    assert max(site_means.values()) < 12.0
