"""Global IP routing over the emulated topology.

The emulator routes every packet along the latency-weighted shortest path
between the source and destination attachment routers, the same policy a
ModelNet core applies.  Routes are computed lazily and cached as one
:class:`RoutePlan` per (src, dst) pair: the resolved node path, directed edge
list, the emulator's per-hop link objects, end-to-end propagation latency, hop
count, and bottleneck bandwidth.
Every query method (:meth:`Router.path`, :meth:`Router.latency`,
:meth:`Router.hop_count`, :meth:`Router.bottleneck_bandwidth`) reads the plan,
so repeated queries for the same pair — the per-packet common case — cost one
dict lookup.  A missing plan costs a Dijkstra search from its source that
crosses a bridge of the underlay only towards the destination.

The router is also the component the evaluation framework queries for *global*
information — direct IP latency between any two hosts and the underlay path a
packet takes — which the paper highlights as necessary for metrics such as
latency stretch, relative delay penalty, and link stress.

Fault injection (the scenario engine's link-cut, partition and degrade
models) goes through :meth:`Router.disable_edge` / :meth:`Router.enable_edge`
/ :meth:`Router.reweigh_edge`, and each drops **only the plans the edge can
have changed**: one that went away or got *slower* the plans that traverse it,
one that came back or got *faster* the plans a path through it could match.
:meth:`Router.invalidate` is for real topology mutation (edges added to or
removed from the graph) only.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Mapping, Optional

from .links import DirectedLink
from .topology import BANDWIDTH_ATTR, LATENCY_ATTR, Topology


class RoutingError(RuntimeError):
    """Raised when no route exists between two attachment points."""


class RoutePlan:
    """Resolved route between one (src, dst) router pair.

    ``latency`` is the Dijkstra distance (not a re-summation of edge weights),
    so it is bit-identical to what the shortest-path search reported.
    ``links`` are the emulator's :class:`DirectedLink` objects in hop order
    (empty for a router built without a link table).

    What ``send`` reads is the route cut at its **queue points** — the hops
    after the first at which a queue can form: the last one always, and any
    hop in between no faster than *narrow* or currently degraded.  The
    contention-free hops between cuts collapse into ``Σ latency`` and
    ``Σ 1/bandwidth``: ``head_latency`` / ``head_inv_bandwidth`` lead from
    the sender (through ``uplink``, hop 0) to the far end of the first queue
    point — of the route, when there is none — and ``stage`` is that point
    as ``(link, latency, inv_bandwidth, onward)``: the constants leading on
    to the far end of the next point, and that point's stage (``None`` after
    the last).  A plan over an edge whose rate changes is rebuilt
    (``Router.reweigh_edge``), so the constants are never stale.

    ``packets`` / ``bytes`` / ``payloads`` count the traffic routed over the
    plan; :meth:`fold` moves them onto the links.
    """

    __slots__ = ("path", "edges", "links", "latency", "hop_count",
                 "_bottleneck", "uplink", "head_latency", "head_inv_bandwidth",
                 "stage", "packets", "bytes", "payloads")

    def __init__(self, path: tuple[int, ...], edges: tuple[tuple[int, int], ...],
                 latency: float, links: tuple[DirectedLink, ...] = (),
                 narrow: float = float("inf")) -> None:
        self.path = path
        self.edges = edges
        self.links = links
        self.latency = latency
        self.hop_count = len(edges)
        self._bottleneck: Optional[float] = None
        self.packets = self.bytes = 0
        self.payloads: Optional[dict[str, int]] = None
        self.uplink = links[0] if links else None
        # Walk back from the destination: the constants gathered since the
        # last cut belong to the stage of the queue point in front of them.
        stage = None
        reach = inv = 0.0
        for link in reversed(links[1:]):
            if stage is None or link.bandwidth <= narrow \
                    or link.bandwidth < link.base_bandwidth:
                stage = (link, reach, inv, stage)
                reach = inv = 0.0
            reach += link.latency
            inv += 1.0 / link.bandwidth
        self.stage = stage
        self.head_latency = reach + links[0].latency if links else 0.0
        self.head_inv_bandwidth = inv + 1.0 / links[0].bandwidth if links else 0.0

    def fold(self) -> None:
        """Move this plan's traffic counters onto the links it crosses."""
        if self.packets:
            for link in self.links:
                link.packets += self.packets
                link.bytes += self.bytes
                if self.payloads:
                    payloads = link.overlay_payloads
                    for tag, count in self.payloads.items():
                        payloads[tag] = payloads.get(tag, 0) + count
            self.packets = self.bytes = 0
            self.payloads = None


class Router:
    """Latency-weighted shortest-path routing with per-source caching."""

    def __init__(self, topology: Topology,
                 links: Optional[Mapping[tuple[int, int], DirectedLink]] = None,
                 ) -> None:
        self._topology = topology
        self._graph = topology.graph
        # The emulator's (u, v) -> DirectedLink table, shared by reference;
        # every plan resolves its ``links`` from it when it is built.
        self._links = links
        # Flat adjacency (node -> [(neighbour, latency), ...]) built lazily from
        # the graph and patched at both ends of every edge event; Dijkstra over
        # it is several times faster than networkx per-edge attribute access.
        self._adjacency: Optional[dict[int, list[tuple[int, float]]]] = None
        # Dijkstra results since the last edge event: source -> (dist, pred)
        # over at least the nodes its plans were asked for.
        self._sssp_cache: dict[int, tuple[dict[int, float], dict[int, Optional[int]]]] = {}
        # Bridges of the enabled graph (see _bridge_sides).
        self._sides: Optional[tuple[dict[int, int], dict]] = None
        # Bandwidth at or under which a link in the middle of a route is a
        # queue point (see RoutePlan): a link no faster than a host can feed
        # is where a backlog can physically form.
        self._narrow = topology.access_bandwidth()
        # Cache of resolved plans: (src, dst) -> RoutePlan.
        self._plan_cache: dict[tuple[int, int], RoutePlan] = {}
        # Callbacks fired by invalidate(): the emulator registers here so a
        # router-level invalidation also gives edges new to the graph their
        # DirectedLink state before the next plan resolves its links.
        self._invalidation_listeners: list[Callable[[], None]] = []
        # Currently disabled undirected edges, stored in both orders so the
        # adjacency filter is one set lookup per directed edge.
        self._disabled_edges: set[tuple[int, int]] = set()

    @property
    def topology(self) -> Topology:
        return self._topology

    # ----------------------------------------------------------------- paths
    def _neighbours(self, node: int) -> list[tuple[int, float]]:
        """Enabled (neighbour, latency) pairs of *node*, in graph order."""
        return [(neighbour, data[LATENCY_ATTR])
                for neighbour, data in self._graph.adj[node].items()
                if (node, neighbour) not in self._disabled_edges]

    def _adj(self) -> dict[int, list[tuple[int, float]]]:
        """:meth:`_neighbours` of every node."""
        if self._adjacency is None:
            self._adjacency = {node: self._neighbours(node)
                               for node in self._graph.adj}
        return self._adjacency

    def _bridge_sides(self) -> tuple[dict[int, int], dict]:
        """DFS entry times and, for each bridge of the enabled graph in both
        directions, ``(v, u) -> (lo, hi, inside)``: crossing v -> u leads
        only to nodes whose entry time t has ``(lo <= t <= hi) == inside``
        (a bridge is a tree edge of every DFS, and one side of it is exactly
        the DFS subtree of its later-entered end; it is a bridge when nothing
        in that subtree reaches, ``low``, as far back as the other end)."""
        adjacency = self._adj()
        entry: dict[int, int] = {}
        low: dict[int, int] = {}
        sides = {}
        for root in adjacency:
            if root in entry:
                continue
            entry[root] = low[root] = len(entry)
            stack = [(root, None, iter(adjacency[root]))]
            while stack:
                node, parent, neighbours = stack[-1]
                for other, _ in neighbours:
                    if other not in entry:
                        entry[other] = low[other] = len(entry)
                        stack.append((other, node, iter(adjacency[other])))
                        break
                    if other != parent and entry[other] < low[node]:
                        low[node] = entry[other]
                else:           # subtree done: it is entry[node]..len(entry)-1
                    stack.pop()
                    if parent is not None:
                        if low[node] < low[parent]:
                            low[parent] = low[node]
                        if low[node] > entry[parent]:
                            side = entry[node], len(entry) - 1
                            sides[parent, node] = (*side, True)
                            sides[node, parent] = (*side, False)
        self._sides = entry, sides
        return self._sides

    def _dijkstra(self, source: int, target: Optional[int] = None,
                  ) -> tuple[dict[int, float], dict[int, Optional[int]]]:
        """Single-source shortest paths over the flat adjacency.

        Replicates networkx's ``_dijkstra_multisource`` exactly — same float
        accumulation (``dist[v] + edge_latency``), same insertion-counter tie
        breaking, same first-seen-wins behaviour on equal distances — so the
        distances and predecessor choices are bit-identical to what earlier
        revisions obtained through networkx.  That equivalence is what keeps
        fixed-seed experiment metrics stable across the fast path, and is
        pinned by tests/network/test_topology_router.py.

        With a *target*, a bridge is crossed only towards the target, so the
        search covers just the bridge-free pieces between the two (on a
        transit-stub underlay: two stub domains and the transit core) and
        returns, for the nodes it covers, exactly the entries of the full
        search: what lies behind another bridge never relays, and leaving
        its pushes out keeps the order of all others.
        """
        adjacency = self._adj()
        if source not in adjacency:
            raise RoutingError(f"source {source} not in topology")
        entry, sides = ({}, {}) if target not in adjacency else \
            self._sides or self._bridge_sides()
        goal, side_of = entry.get(target), sides.get
        dist: dict[int, float] = {}
        pred: dict[int, Optional[int]] = {source: None}
        seen: dict[int, float] = {source: 0}
        seen_get = seen.get
        tie = 0
        fringe: list[tuple[float, int, int]] = [(0, tie, source)]
        while fringe:
            d, _, v = heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            for u, edge_latency in adjacency[v]:
                if u in dist:
                    continue
                if sides:
                    side = side_of((v, u))
                    if side is not None and \
                            (side[0] <= goal <= side[1]) != side[2]:
                        continue
                vu_dist = d + edge_latency
                seen_u = seen_get(u)
                if seen_u is None or vu_dist < seen_u:
                    seen[u] = vu_dist
                    tie += 1
                    heappush(fringe, (vu_dist, tie, u))
                    pred[u] = v
        return dist, pred

    def _sssp(self, source: int, target: Optional[int] = None,
              ) -> tuple[dict[int, float], dict[int, Optional[int]]]:
        """The cached Dijkstra entry of *source*, grown by a search towards
        *target* (without one: over the whole graph) if it lacks it."""
        tree = self._sssp_cache.get(source)
        if tree is None:
            tree = self._sssp_cache[source] = self._dijkstra(source, target)
        elif target not in tree[0]:
            for known, found in zip(tree, self._dijkstra(source, target)):
                known.update(found)
        return tree

    def plan(self, src_node: int, dst_node: int) -> RoutePlan:
        """The cached :class:`RoutePlan` from *src_node* to *dst_node*."""
        key = (src_node, dst_node)
        cached = self._plan_cache.get(key)
        if cached is None:
            cached = self._plan_cache[key] = self._build_plan(src_node, dst_node)
        return cached

    def _build_plan(self, src_node: int, dst_node: int) -> RoutePlan:
        if src_node == dst_node:
            return RoutePlan((src_node,), (), 0.0)
        dist, pred = self._sssp(src_node, dst_node)
        latency = dist.get(dst_node)
        if latency is None:
            raise RoutingError(f"no route from {src_node} to {dst_node}")
        nodes = [dst_node]
        node: Optional[int] = pred[dst_node]
        while node is not None:
            nodes.append(node)
            node = pred[node]
        nodes.reverse()
        path = tuple(nodes)
        edges = tuple(zip(path[:-1], path[1:]))
        links = self._links
        if not links:
            return RoutePlan(path, edges, latency)
        return RoutePlan(path, edges, latency,
                         tuple([links[edge] for edge in edges]), self._narrow)

    def path(self, src_node: int, dst_node: int) -> list[int]:
        """Topology path (list of router ids) from *src_node* to *dst_node*."""
        return list(self.plan(src_node, dst_node).path)

    def latency(self, src_node: int, dst_node: int) -> float:
        """One-way propagation latency of the shortest path, in seconds."""
        return self.plan(src_node, dst_node).latency

    def bottleneck_bandwidth(self, src_node: int, dst_node: int) -> float:
        """Minimum link bandwidth along the path (bytes/second)."""
        plan = self.plan(src_node, dst_node)
        bottleneck = plan._bottleneck
        if bottleneck is None:
            if plan.edges:
                graph_edges = self._graph.edges
                bottleneck = min(graph_edges[u, v][BANDWIDTH_ATTR]
                                 for u, v in plan.edges)
            else:
                bottleneck = float("inf")
            plan._bottleneck = bottleneck
        return bottleneck

    def hop_count(self, src_node: int, dst_node: int) -> int:
        """Number of links on the latency-shortest path."""
        return self.plan(src_node, dst_node).hop_count

    # ------------------------------------------------------------ fault hooks
    def _edge_changed(self, u: int, v: int) -> None:
        """Edge (u, v) changed: re-read its two adjacency lists, drop the trees."""
        if self._adjacency is not None:
            for node in (u, v):
                self._adjacency[node] = self._neighbours(node)
        self._sssp_cache.clear()

    def _drop_users(self, u: int, v: int) -> None:
        """Edge (u, v) went away or got slower: drop the plans whose path
        traverses it.  Every other plan is kept: removing or lengthening an
        edge never shortens a route that avoids it, and a fresh Dijkstra
        still makes the same choice at every node of a kept path."""
        plans = self._plan_cache
        for key in [k for k, plan in plans.items()
                    if (u, v) in plan.edges or (v, u) in plan.edges]:
            plans.pop(key).fold()

    def _drop_beneficiaries(self, u: int, v: int, weight: float) -> None:
        """Edge (u, v) came back or got faster, now weighing *weight*: drop
        the plans a path through it could match.

        That is judged from the two endpoint trees on the updated graph; the
        relative slack absorbs the float rounding of summing the same path
        from the other end.  A kept plan is strictly shorter than anything
        through the edge, so is every prefix of it, and a fresh Dijkstra
        still makes the same choice at every node of its path, ties included.
        """
        plans = self._plan_cache
        inf = float("inf")
        from_u, from_v = self._sssp(u)[0].get, self._sssp(v)[0].get
        for (src, dst), plan in list(plans.items()):
            through = min(from_u(src, inf) + from_v(dst, inf),
                          from_v(src, inf) + from_u(dst, inf)) + weight
            if through <= plan.latency * (1 + 1e-9):
                plans.pop((src, dst)).fold()

    def disable_edge(self, u: int, v: int) -> None:
        """Cut the undirected edge (u, v); see :meth:`_drop_users` for what
        is invalidated.  Idempotent."""
        if not self._graph.has_edge(u, v):
            raise RoutingError(f"cannot disable edge ({u}, {v}): not in topology")
        if (u, v) in self._disabled_edges:
            return
        self._disabled_edges.update(((u, v), (v, u)))
        self._edge_changed(u, v)
        # Now rather than on the next miss: a fault then costs the same
        # whether or not the packets that follow it need a new plan.
        self._bridge_sides()
        self._drop_users(u, v)

    def enable_edge(self, u: int, v: int) -> None:
        """Heal a previously cut edge; see :meth:`_drop_beneficiaries` for
        what is invalidated.  Idempotent for edges not currently disabled."""
        if not self._graph.has_edge(u, v):
            raise RoutingError(f"cannot enable edge ({u}, {v}): not in topology")
        if (u, v) not in self._disabled_edges:
            return
        self._disabled_edges.difference_update(((u, v), (v, u)))
        self._edge_changed(u, v)
        self._bridge_sides()            # at once, as in disable_edge
        self._drop_beneficiaries(u, v, self._graph[u][v][LATENCY_ATTR])

    def reweigh_edge(self, u: int, v: int, latency: float,
                     *, may_shorten: bool = False) -> None:
        """Change the undirected edge (u, v)'s routing weight at runtime.

        This is the routing half of link degradation and restoration.  Every
        plan that uses the edge is dropped (:meth:`_drop_users`): its latency
        is stale, and so are its cached bottleneck and queue-point constants
        when only the bandwidth changed.  ``may_shorten`` must be True unless the new
        weight is no smaller than the old one; it additionally drops what the
        faster edge could improve (:meth:`_drop_beneficiaries`).  A currently
        disabled edge routes nothing, so only its weight is recorded.
        """
        if not self._graph.has_edge(u, v):
            raise RoutingError(f"cannot reweigh edge ({u}, {v}): not in topology")
        self._graph[u][v][LATENCY_ATTR] = latency
        if (u, v) in self._disabled_edges:
            return
        self._edge_changed(u, v)        # same bridges, new weights
        self._drop_users(u, v)
        if may_shorten:
            self._drop_beneficiaries(u, v, latency)

    def edge_disabled(self, u: int, v: int) -> bool:
        """Whether the undirected edge (u, v) is currently cut."""
        return (u, v) in self._disabled_edges

    def disabled_edges(self) -> set[tuple[int, int]]:
        """The currently cut edges, one canonical (min, max) tuple per edge."""
        return {(min(u, v), max(u, v)) for u, v in self._disabled_edges}

    def add_invalidation_listener(self, callback: Callable[[], None]) -> None:
        """Register *callback* to run whenever :meth:`invalidate` is called."""
        self._invalidation_listeners.append(callback)

    def invalidate(self) -> None:
        """Drop cached routes and plans (call after adding or removing graph
        edges; faults go through the targeted hooks above).

        Also notifies registered listeners, so invalidating the router of a
        live :class:`~repro.network.emulator.NetworkEmulator` refreshes the
        emulator's link table too.
        """
        self._adjacency = self._sides = None
        self._narrow = self._topology.access_bandwidth()
        self._sssp_cache.clear()
        for plan in self._plan_cache.values():
            plan.fold()
        self._plan_cache.clear()
        for callback in self._invalidation_listeners:
            callback()
