"""Shard partitioner coverage: assignment totality, domain integrity,
client/access-router co-location, and degenerate-topology fallbacks."""

from __future__ import annotations

import pytest

from repro.network.topology import (
    ROLE_ATTR,
    dumbbell_topology,
    multi_site_topology,
    transit_stub_topology,
)
from repro.runtime.sharded.partition import (
    ShardPlanError,
    plan_shards,
    stub_domains,
)


@pytest.fixture(scope="module")
def topology():
    return transit_stub_topology(48, seed=3)


def test_every_host_assigned_exactly_once(topology):
    plan = plan_shards(topology, 48, 4)
    assert plan.num_shards == 4
    assert len(plan.shard_of_node) == 48
    assert set(plan.shard_of_host) == set(topology.clients)
    assert all(0 <= s < plan.num_shards for s in plan.shard_of_node)
    # owned_nodes() partitions the node indices: no overlap, no gaps.
    owned = [plan.owned_nodes(s) for s in range(plan.num_shards)]
    flat = [i for group in owned for i in group]
    assert sorted(flat) == list(range(48))
    assert len(flat) == len(set(flat))
    for shard, group in enumerate(owned):
        assert all(plan.owns(shard, i) for i in group)


def test_stub_domains_never_split(topology):
    plan = plan_shards(topology, 48, 4)
    # All clients of one domain land on one shard.
    domain_shards: dict[int, set[int]] = {}
    for client, domain in plan.domain_of_host.items():
        domain_shards.setdefault(domain, set()).add(plan.shard_of_host[client])
    for domain, shards in domain_shards.items():
        assert len(shards) == 1, f"domain {domain} split across {shards}"


def test_clients_follow_access_router(topology):
    plan = plan_shards(topology, 48, 4)
    domains = stub_domains(topology)
    router_domain = {router: index
                     for index, members in enumerate(domains)
                     for router in members}
    graph = topology.graph
    for client in topology.clients:
        stub_neighbors = [router_domain[n] for n in graph.neighbors(client)
                          if n in router_domain]
        assert stub_neighbors, f"client {client} has no stub access router"
        assert plan.domain_of_host[client] == stub_neighbors[0]


def test_hosts_per_shard_accounts_for_used_clients(topology):
    plan = plan_shards(topology, 30, 4)
    assert sum(plan.hosts_per_shard) == 30
    assert len(plan.shard_of_node) == 30
    # The greedy packer keeps the used population roughly balanced: no shard
    # can exceed another by more than the largest domain's used-client count.
    domain_used: dict[int, int] = {}
    for client in topology.clients[:30]:
        domain = plan.domain_of_host[client]
        domain_used[domain] = domain_used.get(domain, 0) + 1
    assert (max(plan.hosts_per_shard) - min(plan.hosts_per_shard)
            <= max(domain_used.values()))


def test_lookahead_positive_and_finite(topology):
    plan = plan_shards(topology, 48, 4)
    assert 0.0 < plan.lookahead < float("inf")


def test_plan_is_deterministic(topology):
    first = plan_shards(topology, 48, 4)
    second = plan_shards(topology, 48, 4)
    assert first == second


def test_single_shard_trivial_plan(topology):
    plan = plan_shards(topology, 48, 1)
    assert plan.num_shards == 1
    assert plan.lookahead == float("inf")
    assert set(plan.shard_of_node) == {0}


def test_multi_site_pseudo_domains_cap_shards():
    # No stub-role routers: each site gateway becomes a pseudo-domain, and
    # asking for more shards than sites degrades to one shard per site.
    topo = multi_site_topology([4, 4, 4])
    assert stub_domains(topo) == []
    plan = plan_shards(topo, 12, 8)
    assert plan.requested_shards == 8
    assert plan.num_shards == 3
    # Co-located clients (same gateway) stay together.
    domain_shards: dict[int, set[int]] = {}
    for client, domain in plan.domain_of_host.items():
        domain_shards.setdefault(domain, set()).add(plan.shard_of_host[client])
    assert all(len(s) == 1 for s in domain_shards.values())
    assert 0.0 < plan.lookahead < float("inf")


def test_dumbbell_degrades_to_two_shards():
    topo = dumbbell_topology(clients_per_side=3)
    plan = plan_shards(topo, 6, 4)
    assert plan.num_shards == 2
    assert sorted(plan.hosts_per_shard) == [3, 3]
    assert 0.0 < plan.lookahead < float("inf")


def test_dumbbell_window_ends_at_the_narrow_links_far_end():
    """A packet crossing the dumbbell leaves its shard as the event of the
    middle link's queue, at that link's far end: 1 ms of access plus 20 ms
    of bottleneck away, sooner than the 22 ms to the nearest foreign host.
    The window must not be wider than what the planner can vouch for."""
    plan = plan_shards(dumbbell_topology(clients_per_side=3), 6, 2)
    assert plan.lookahead <= 0.021


def _forked_dumbbell():
    """A dumbbell whose right side fans out into two access routers *behind*
    the narrow link: 0 =narrow= 1, 1 - 2, 1 - 3, clients on 0, 2 and 3."""
    topo = dumbbell_topology(clients_per_side=2)
    graph = topo.graph
    right = [c for c in topo.clients if graph.has_edge(c, 1)]
    for router, client in zip((100, 101), right):
        graph.add_node(router, **{ROLE_ATTR: "transit"})
        graph.add_edge(1, router, latency=0.002, bandwidth=125_000_000.0)
        access = graph[client][1]
        graph.remove_edge(client, 1)
        graph.add_edge(client, router, **access)
    return topo


def test_hosts_behind_a_narrow_link_are_never_split():
    """The queue of a narrow mid-route link is evaluated by the shard of the
    hosts it leads to, so those hosts must share one: a plan that would split
    them is refused with the link's name, fewer shards still work."""
    topo = _forked_dumbbell()
    with pytest.raises(ShardPlanError, match=r"narrow link \(0, 1\)"):
        plan_shards(topo, 4, 3)
    assert plan_shards(topo, 4, 1).num_shards == 1


def test_rejects_bad_arguments(topology):
    with pytest.raises(ShardPlanError):
        plan_shards(topology, 48, 0)
    with pytest.raises(ShardPlanError):
        plan_shards(topology, len(topology.clients) + 1, 2)


def test_stub_domains_are_stub_routers_only(topology):
    graph = topology.graph
    for domain in stub_domains(topology):
        for router in domain:
            assert graph.nodes[router][ROLE_ATTR] == "stub"
