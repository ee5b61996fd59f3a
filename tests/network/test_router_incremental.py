"""Property test: the router's targeted invalidation never leaves anything a
fresh :class:`Router` on the same graph state would disagree with."""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.network.emulator import NetworkEmulator
from repro.network.router import Router, RoutingError
from repro.network.topology import (BANDWIDTH_ATTR, LATENCY_ATTR, Topology,
                                    transit_stub_topology)
from repro.runtime.engine import Simulator

FACTORS = (0.25, 0.5, 1.0, 1.0, 2.0, 4.0)

index = st.integers(min_value=0, max_value=10_000)
#: One step: a kind (cuts and heals drawn twice as often), three picks whose
#: meaning depends on the kind, and ``may_shorten`` where it is a choice.
steps = st.lists(st.tuples(
    st.sampled_from(("plan", "warm", "disable", "disable", "enable", "enable",
                     "reweigh")),
    index, index, index, st.booleans()), min_size=1, max_size=24)


def build(seed: int, integer_weights: bool) -> NetworkEmulator:
    # 4 transit + 4 stubs of 3 + 6 clients: 22 nodes, ids 0..21.
    topology = transit_stub_topology(
        6, transit_routers=4, stubs_per_transit=1, routers_per_stub=3,
        extra_transit_edges=2, seed=seed)
    if integer_weights:      # exact ties everywhere
        rng = random.Random(seed)
        for _, _, data in topology.graph.edges(data=True):
            data[LATENCY_ATTR] = rng.randint(1, 3)
    return NetworkEmulator(Simulator(seed=seed), topology)


def fresh_router(emulator: NetworkEmulator) -> Router:
    fresh = Router(emulator.topology)
    for u, v in emulator.router.disabled_edges():
        fresh.disable_edge(u, v)
    return fresh


def check_against_fresh(emulator: NetworkEmulator) -> None:
    router, graph = emulator.router, emulator.topology.graph
    fresh = fresh_router(emulator)
    full = {}
    for source, (dist, pred) in router._sssp_cache.items():
        full[source] = fresh_dist, fresh_pred = fresh._dijkstra(source)
        assert dist.keys() == pred.keys()
        for node in dist:        # what a search towards a target covers
            assert (dist[node], pred[node]) == \
                (fresh_dist[node], fresh_pred[node]), f"stale tree of {source}"
    for (src, dst), plan in router._plan_cache.items():
        if src not in full:
            full[src] = fresh._dijkstra(src)
        shortest, node = full[src][0][dst], dst
        assert plan.latency == shortest, (src, dst)
        for hop in reversed(plan.path):      # the full search's own choice
            assert hop == node, (src, dst)
            node = full[src][1][hop]
        walked = sum(graph[a][b][LATENCY_ATTR] for a, b in plan.edges)
        assert abs(walked - shortest) <= 1e-9 * shortest, (src, dst)
        assert plan.path[0] == src and plan.path[-1] == dst
        assert not router._disabled_edges.intersection(plan.edges)
        assert plan.links == tuple(emulator._links[edge] for edge in plan.edges)
        # Read every time, so the lazy bottleneck is always populated and a
        # plan that kept a stale one fails the check after the next step.
        if plan.edges:
            assert router.bottleneck_bandwidth(src, dst) == min(
                graph[a][b][BANDWIDTH_ATTR] for a, b in plan.edges)


@settings(max_examples=240, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=50),
       integer_weights=st.booleans(), steps=steps)
def test_incremental_invalidation_matches_a_fresh_router(
        seed, integer_weights, steps):
    emulator = build(seed, integer_weights)
    router, graph = emulator.router, emulator.topology.graph
    edges = sorted(graph.edges())
    nodes = graph.number_of_nodes()
    for kind, first, second, third, may_shorten in steps:
        if kind in ("plan", "warm"):       # warm: a plan from every source
            sources = range(nodes) if kind == "warm" else (first % nodes,)
            for source in sources:
                try:
                    router.plan(source, second % nodes)
                except RoutingError:
                    pass
        elif kind == "disable":
            router.disable_edge(*edges[first % len(edges)])
        elif kind == "enable":     # a cut edge when there is one
            cut = sorted(router.disabled_edges()) or edges
            router.enable_edge(*cut[first % len(cut)])
        else:
            u, v = edges[first % len(edges)]
            old = graph[u][v][LATENCY_ATTR]
            new = (1 + second % 3 if integer_weights
                   else old * FACTORS[second % len(FACTORS)])
            # A "degrade" may change only the bandwidth (factor 1.0).
            graph[u][v][BANDWIDTH_ATTR] *= (0.5, 1.0, 2.0)[third % 3]
            before = dict(router._plan_cache)
            router.reweigh_edge(u, v, new,
                                may_shorten=may_shorten or new < old)
            for key, plan in router._plan_cache.items():
                if plan is before.get(key):
                    assert (u, v) not in plan.edges and (v, u) not in plan.edges
        check_against_fresh(emulator)


def test_a_healed_edge_that_only_ties_still_drops_the_plan():
    """0-1-2 costs 1 + 1, the healed chord 0-2 costs 2: no distance changes,
    but first-seen-wins now reaches 2 over the chord, so the cached plan
    (0, 1, 2) is not what a fresh router builds and must go."""
    graph = nx.Graph()
    for u, v, weight in ((0, 1, 1), (1, 2, 1), (0, 2, 2)):
        graph.add_edge(u, v, **{LATENCY_ATTR: weight, BANDWIDTH_ATTR: 1.0})
    topology = Topology(graph=graph, clients=[])
    router = Router(topology)
    router.disable_edge(0, 2)
    assert router.plan(0, 2).path == (0, 1, 2)
    router.enable_edge(0, 2)
    assert router.plan(0, 2).path == Router(topology).plan(0, 2).path == (0, 2)
