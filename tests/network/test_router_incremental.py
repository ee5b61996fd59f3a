"""Property test: the router's targeted invalidation never leaves anything a
fresh :class:`Router` on the same graph state would disagree with."""

from __future__ import annotations

import random
from heapq import heappop

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from nx_oracle import from_networkx, to_networkx

import repro.network.router as router_module
from repro.network.emulator import NetworkEmulator
from repro.network.router import RoutePlan, Router, RoutingError
from repro.network.topology import (BANDWIDTH_ATTR, LATENCY_ATTR, ROLE_ATTR,
                                    Graph, Topology, stub_domains,
                                    transit_stub_topology)
from repro.runtime.engine import Simulator

FACTORS = (0.25, 0.5, 1.0, 1.0, 2.0, 4.0)

index = st.integers(min_value=0, max_value=10_000)
#: One step: a kind (cuts and heals drawn twice as often), three picks whose
#: meaning depends on the kind, and ``may_shorten`` where it is a choice.
steps = st.lists(st.tuples(
    st.sampled_from(("plan", "warm", "disable", "disable", "enable", "enable",
                     "reweigh", "tree")),
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
    nodes = len(graph)
    for kind, first, second, third, may_shorten in steps:
        if kind in ("plan", "warm"):       # warm: a plan from every source
            sources = range(nodes) if kind == "warm" else (first % nodes,)
            for source in sources:
                try:
                    router.plan(source, second % nodes)
                except RoutingError:
                    pass
        elif kind == "tree":       # a whole-graph tree over a partial one
            router._sssp(first % nodes)
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


def test_a_miss_grows_the_tree_across_one_bridge(monkeypatch):
    """Eight plans from every client of the 600-host underlay: each miss
    searches only past the bridge between its source's tree and the target,
    not from the source again (105 910 pops for the same entries)."""
    topology = transit_stub_topology(600, seed=7)
    router = Router(topology)
    pops = 0

    def counted(fringe):
        nonlocal pops
        pops += 1
        return heappop(fringe)
    monkeypatch.setattr(router_module, "heappop", counted)
    rng = random.Random(3)
    for source in topology.clients:
        for target in rng.sample(topology.clients, 8):
            router.plan(source, target)
    assert sum(len(dist) for dist, _ in router._sssp_cache.values()) == 31_121
    assert pops == 33_571


def test_an_unreachable_target_leaves_the_tree_as_it_was():
    """The stub behind a cut uplink is in another DFS tree: no bridge leads
    there from a tree over the core, nor from one over its own stub only."""
    topology = transit_stub_topology(40, seed=7)
    graph = topology.graph
    near, stranded, far = (topology.clients[i] for i in (0, 5, 9))
    (relay,) = graph.neighbors(near)
    stub = next(domain for domain in stub_domains(topology)
                if not domain.isdisjoint(graph.neighbors(stranded)))
    uplink = next((member, n) for member in stub for n in graph.neighbors(member)
                  if graph.nodes[n][ROLE_ATTR] == "transit")
    router = Router(topology)
    router.disable_edge(*uplink)
    router.plan(near, far)              # a tree over the core
    router.plan(relay, near)            # a tree over one stub
    for source in (near, relay):
        dist, pred = router._sssp_cache[source]
        before = dict(dist), dict(pred)
        with pytest.raises(RoutingError):
            router.plan(source, stranded)
        assert (dist, pred) == before
        assert router._sssp_cache[source][0] is dist
    router.enable_edge(*uplink)
    for source in (near, relay):
        healed, fresh = router.plan(source, stranded), \
            Router(topology).plan(source, stranded)
        assert (healed.path, healed.latency) == (fresh.path, fresh.latency)


def test_a_first_search_toward_an_unreachable_target_settles_nothing(
        monkeypatch):
    """Cutting uplink (14, 0) strands stub {14..17} and client 174 behind it.
    A first plan from stub router 10 to 174 raises before any search and
    caches no tree (a search first settled 14 nodes and cached them); every
    other plan and tree is what a whole-graph search gives."""
    topology = transit_stub_topology(40, seed=7)
    router = Router(topology)
    router.disable_edge(14, 0)
    pops = 0

    def counted(fringe):
        nonlocal pops
        pops += 1
        return heappop(fringe)
    monkeypatch.setattr(router_module, "heappop", counted)
    with pytest.raises(RoutingError):
        router.plan(10, 174)
    assert pops == 0 and router._sssp_cache == {}
    monkeypatch.undo()

    full = {}
    for source in (10, *topology.clients):
        full[source] = router._dijkstra(source)
        for target in topology.clients:
            if target not in full[source][0]:
                with pytest.raises(RoutingError):
                    router.plan(source, target)
                continue
            plan, node = router.plan(source, target), target
            assert plan.latency == full[source][0][target]
            for hop in reversed(plan.path):
                assert hop == node
                node = full[source][1][hop]
    for source, (dist, pred) in router._sssp_cache.items():
        for node in dist:
            assert (dist[node], pred[node]) == \
                (full[source][0][node], full[source][1][node])
    assert 174 not in router._sssp_cache[10][0]


def test_a_healed_edge_that_only_ties_still_drops_the_plan():
    """0-1-2 costs 1 + 1, the healed chord 0-2 costs 2: no distance changes,
    but first-seen-wins now reaches 2 over the chord, so the cached plan
    (0, 1, 2) is not what a fresh router builds and must go, and so must
    node 0's tree, which holds the same choice (pred[2] == 1)."""
    graph = Graph()
    for u, v, weight in ((0, 1, 1), (1, 2, 1), (0, 2, 2)):
        graph.add_edge(u, v, **{LATENCY_ATTR: weight, BANDWIDTH_ATTR: 1.0})
    topology = Topology(graph=graph, clients=[])
    router = Router(topology)
    router.disable_edge(0, 2)
    assert router.plan(0, 2).path == (0, 1, 2)
    assert router._sssp_cache[0][1][2] == 1
    # The heal searches whole-graph trees from both ends right after it
    # prunes, so the tree is looked at in between.
    after_prune = []
    prune = router._edge_changed

    def watched(*args, **kwargs):
        prune(*args, **kwargs)
        after_prune.append(router._sssp_cache.get(0))
    router._edge_changed = watched
    router.enable_edge(0, 2)
    assert after_prune == [None]
    assert router.plan(0, 2).path == Router(topology).plan(0, 2).path == (0, 2)
    assert router._sssp_cache[0][1][2] == 0


def test_trees_outlive_the_edge_events_that_cannot_move_them():
    """A cut drops exactly the trees the edge is a tree edge of and keeps
    every other tree as the very same object; the heal then keeps each tree
    holding both ends in which neither end's offer over the edge reaches
    the other end's distance."""
    emulator = build(seed=0, integer_weights=False)
    router, graph = emulator.router, emulator.topology.graph
    nodes = len(graph)
    for source in range(nodes):
        router.plan(source, (source + nodes // 2) % nodes)
    trees = dict(router._sssp_cache)
    assert len(trees) == nodes
    u, v = 0, 1
    users = {source for source, (_, pred) in trees.items()
             if pred.get(v) == u or pred.get(u) == v}
    assert 0 < len(users) < nodes
    router.disable_edge(u, v)
    assert router._sssp_cache.keys() == trees.keys() - users
    for source, tree in router._sssp_cache.items():
        assert tree is trees[source], source
    check_against_fresh(emulator)

    weight = graph[u][v][LATENCY_ATTR]
    slack = {source: tree for source, tree in router._sssp_cache.items()
             if source not in (u, v) and u in tree[0] and v in tree[0]
             and tree[0][u] + weight > tree[0][v]
             and tree[0][v] + weight > tree[0][u]}
    assert slack
    router.enable_edge(u, v)
    for source, tree in slack.items():
        assert router._sssp_cache[source] is tree, source
    check_against_fresh(emulator)


def test_a_heal_that_closes_a_cycle_through_a_tree_drops_it():
    """Triangle 0-1-2 (edges of 10) with 3 hung off 0 and 4 off 1: healing
    3-4 makes 0-3-4-1 (3) the way from 0 to 1.  Node 0's tree spans the
    triangle and holds neither end of the edge, node 1's spans the triangle
    and 3 and holds one end; the edge joins two pieces through both, so
    both trees go, though neither holds a distance the test could read."""
    graph = Graph()
    for u, v, weight in ((0, 1, 10), (1, 2, 10), (0, 2, 10), (0, 3, 1),
                         (1, 4, 1), (3, 4, 1)):
        graph.add_edge(u, v, **{LATENCY_ATTR: weight, BANDWIDTH_ATTR: 1.0})
    topology = Topology(graph=graph, clients=[])
    router = Router(topology)
    router.disable_edge(3, 4)
    router.plan(0, 1)
    router.plan(1, 3)
    assert router._sssp_cache[0][0].keys() == {0, 1, 2}
    assert router._sssp_cache[1][0].keys() == {0, 1, 2, 3}
    router.enable_edge(3, 4)
    assert router._sssp_cache.keys() == {3, 4}      # the heal's own searches
    fresh = Router(topology)
    for src, dst in ((0, 1), (1, 3), (1, 4), (2, 4)):
        assert router.plan(src, dst).path == fresh.plan(src, dst).path
    assert router.plan(0, 1).path == (0, 3, 4, 1)


# --------------------------------------------------------- a plan is its path
def test_a_plan_stores_its_path_and_derives_its_edges():
    emulator = build(seed=1, integer_weights=False)
    assert "edges" not in RoutePlan.__slots__
    for dst in range(len(emulator.topology.graph)):
        plan = emulator.router.plan(3, dst)
        assert plan.edges == tuple(zip(plan.path, plan.path[1:]))
        assert plan.hop_count == len(plan.path) - 1 == len(plan.edges)
        assert plan.links == tuple(emulator._links[edge] for edge in plan.edges)


@pytest.mark.parametrize("with_links", (True, False))
def test_a_cut_drops_exactly_the_plans_that_cross_it(with_links):
    """Every edge in turn, over plans between all pairs: a plan goes when
    its path crosses the edge in either direction, at any hop."""
    emulator = build(seed=2, integer_weights=False)
    router = emulator.router if with_links else Router(emulator.topology)
    graph = emulator.topology.graph
    nodes = range(len(graph))
    at_ends = set()
    for u, v in graph.edges():
        for src in nodes:
            for dst in nodes:
                router.plan(src, dst)
        before = dict(router._plan_cache)
        crossing = set()
        for key, plan in before.items():
            hops = list(zip(plan.path, plan.path[1:]))
            for hop in ((u, v), (v, u)):
                if hop in hops:
                    crossing.add(key)
                    at_ends.add((hop == (u, v), hops.index(hop) == 0,
                                 hops.index(hop) == len(hops) - 1))
        router._drop_users(u, v)
        assert router._plan_cache.keys() == before.keys() - crossing, (u, v)
    # Both directions, as the first hop and as the last.
    assert {(forward, first) for forward, first, _ in at_ends} >= \
        {(True, True), (False, True)}
    assert {(forward, last) for forward, _, last in at_ends} >= \
        {(True, True), (False, True)}


# ------------------------------------------------------------ degree-1 nodes
def test_a_whole_graph_search_without_leaf_pushes_is_the_pushing_one():
    """Integer weights (ties everywhere), every source — hosts, so degree-1
    sources, included — and a two-node component: each whole-graph tree is
    networkx's, distance for distance and first-seen predecessor for
    predecessor."""
    topology = build(seed=4, integer_weights=True).topology
    graph = topology.graph
    graph.add_edge(100, 101, **{LATENCY_ATTR: 2, BANDWIDTH_ATTR: 1.0})
    router = Router(topology)
    router._adj()
    assert {100, 101, *topology.clients} <= router._leaves
    oracle = to_networkx(graph)
    for source in graph:
        dist, pred = router._dijkstra(source)
        dist_nx, paths_nx = nx.single_source_dijkstra(
            oracle, source, weight=LATENCY_ATTR)
        assert dist == dist_nx, source
        assert pred == {node: path[-2] if len(path) > 1 else None
                        for node, path in paths_nx.items()}, source


# ------------------------------------------------------------ the bridge pass
def unit_topology(graph: nx.Graph) -> Topology:
    """The router's copy of the oracle *graph*, in the oracle's order."""
    nx.set_edge_attributes(graph, 1.0, LATENCY_ATTR)
    nx.set_edge_attributes(graph, 1.0, BANDWIDTH_ATTR)
    return Topology(graph=from_networkx(graph), clients=[])


def random_graph(kind: str, size: int, rng: random.Random) -> nx.Graph:
    """*kind* picks the shape the bridge pass has to get right: nothing but
    bridges, no bridge at all, a mix, or several components."""
    graph = nx.Graph()
    graph.add_nodes_from(range(size))
    if kind == "islands":       # two unrelated pieces and an isolated node
        left = random_graph("mixed", size, rng)
        right = random_graph(rng.choice(("tree", "cycle")), size, rng)
        graph = nx.disjoint_union(left, right)
        graph.add_node(2 * size)
    if kind in ("tree", "mixed"):
        graph.add_edges_from((node, rng.randrange(node)) for node in range(1, size))
    if kind == "cycle":
        graph.add_edges_from((node, (node + 1) % size) for node in range(size))
    if kind in ("mixed", "sparse"):     # sparse: usually not connected
        graph.add_edges_from(
            rng.sample(range(size), 2) for _ in range(rng.randrange(size)))
    # Entry order must not follow the labels, nor the roots come first.
    labels = list(graph)
    rng.shuffle(labels)
    shuffled = nx.Graph()
    shuffled.add_nodes_from(labels)
    edges = [(labels[u], labels[v]) for u, v in graph.edges()]
    rng.shuffle(edges)
    shuffled.add_edges_from(edges)
    return shuffled


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("tree", "cycle", "mixed", "sparse", "islands")),
       size=st.integers(min_value=3, max_value=12), seed=index,
       cuts=st.integers(min_value=0, max_value=4))
def test_bridge_pass_matches_networkx_and_its_intervals_are_the_far_sides(
        kind, size, seed, cuts):
    rng = random.Random(seed)
    graph = random_graph(kind, size, rng)
    router = Router(unit_topology(graph))
    for u, v in rng.sample(sorted(graph.edges()),
                           min(cuts, graph.number_of_edges())):
        router.disable_edge(u, v)
    entry, sides = router._bridge_sides()
    assert not cuts or (entry, sides) == router._sides    # paid by the cut
    assert sorted(entry.values()) == list(range(len(graph)))   # every component
    enabled = nx.restricted_view(graph, (), router._disabled_edges)
    bridges = set(nx.bridges(enabled))
    assert set(sides) == bridges | {(u, v) for v, u in bridges}
    if kind == "tree":
        assert len(bridges) == enabled.number_of_edges()
    elif kind == "cycle" and not cuts:
        assert not bridges
    for (v, u), (lo, hi, inside) in sides.items():
        beyond = nx.node_connected_component(
            nx.restricted_view(enabled, (), [(v, u)]), u)
        # Within the bridge's own component: no search leaves it anyway.
        assert {node for node in nx.node_connected_component(enabled, v)
                if (lo <= entry[node] <= hi) == inside} == beyond, (v, u)
    # What the intervals are for: a search towards a target finds, for the
    # nodes it covers, the entries of the search that crosses every bridge.
    for source in graph:
        full = router._dijkstra(source)
        for target in graph:
            dist, pred = router._dijkstra(source, target)
            assert dist.get(target) == full[0].get(target)
            assert all(full[0][node] == dist[node] and full[1][node] == pred[node]
                       for node in dist)


def test_a_path_of_5000_routers_plans_end_to_end_without_recursion():
    router = Router(unit_topology(nx.path_graph(5_000)))
    plan = router.plan(0, 4_999)
    assert plan.hop_count == 4_999 and plan.latency == 4_999.0
    assert len(router._sides[1]) == 2 * 4_999
    router.disable_edge(2_499, 2_500)
    with pytest.raises(RoutingError):
        router.plan(0, 4_999)
    router.enable_edge(2_499, 2_500)
    assert router.plan(4_999, 0).path == tuple(range(4_999, -1, -1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=50), steps=steps,
       cold=st.booleans())
def test_patched_adjacency_is_the_freshly_built_one(seed, steps, cold):
    """Same lists in the same order — the order Dijkstra breaks ties by —
    after every edge event, whether or not the dict existed before it."""
    emulator = build(seed, integer_weights=False)
    router, graph = emulator.router, emulator.topology.graph
    edges = sorted(graph.edges())
    if not cold:
        router._adj()
    for kind, first, second, _, _ in steps:
        u, v = edges[first % len(edges)]
        if kind == "disable":
            router.disable_edge(u, v)
        elif kind == "enable":
            cut = sorted(router.disabled_edges()) or edges
            router.enable_edge(*cut[first % len(cut)])
        elif kind == "reweigh":
            new = graph[u][v][LATENCY_ATTR] * FACTORS[second % len(FACTORS)]
            router.reweigh_edge(u, v, new, may_shorten=True)
        else:
            continue
        fresh = fresh_router(emulator)
        assert router._adj() == fresh._adj()
        assert list(router._adj()) == list(fresh._adj())
        assert router._leaves == fresh._leaves
        # None until the first real cut or plan, never stale after one.
        assert router._sides in (None, fresh._bridge_sides())


def test_a_cut_and_a_heal_never_enter_networkx(monkeypatch):
    emulator = build(seed=3, integer_weights=False)
    edge = sorted(emulator.topology.graph.edges())[0]
    emulator.router.plan(0, 21)

    def networkx_pass(*args, **kwargs):
        raise AssertionError("networkx graph pass inside an edge event")
    for name in ("bridges", "dfs_labeled_edges", "restricted_view"):
        monkeypatch.setattr(nx, name, networkx_pass)
    emulator.disable_link(*edge)
    emulator.router.plan(0, 21)
    emulator.enable_link(*edge)
    emulator.degrade_edge(*edge, latency_factor=2.0)
    emulator.restore_edge(*edge)
    assert emulator.router.plan(0, 21).path == \
        Router(emulator.topology).plan(0, 21).path
    assert not hasattr(router_module, "networkx")
