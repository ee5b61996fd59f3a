"""Global IP routing over the emulated topology.

The emulator routes every packet along the latency-weighted shortest path
between the source and destination attachment routers, the same policy a
ModelNet core applies.  Routes are computed lazily and cached as one
:class:`RoutePlan` per (src, dst) pair: the resolved node path (its edges and
hop count are read off it), the emulator's per-hop link objects, end-to-end
propagation latency, and bottleneck bandwidth.
Every query method (:meth:`Router.path`, :meth:`Router.latency`,
:meth:`Router.hop_count`, :meth:`Router.bottleneck_bandwidth`) reads the plan,
so repeated queries for the same pair — the per-packet common case — cost one
dict lookup.  A missing plan costs a Dijkstra search that crosses a bridge of
the underlay only towards the destination: from the source the first time,
and after that from the one bridge between the source's cached tree and the
destination, growing the tree instead of searching it again.

The router is also the component the evaluation framework queries for *global*
information — direct IP latency between any two hosts and the underlay path a
packet takes — which the paper highlights as necessary for metrics such as
latency stretch, relative delay penalty, and link stress.

Fault injection (the scenario engine's link-cut, partition and degrade
models) goes through :meth:`Router.disable_edge` / :meth:`Router.enable_edge`
/ :meth:`Router.reweigh_edge`, and each drops **only the plans the edge can
have changed**: one that went away or got *slower* the plans that traverse it,
one that came back or got *faster* the plans a path through it could match.
The per-source Dijkstra trees are kept the same way, each dropped only when an
O(1) test on its own entries says the event can have moved it
(:meth:`Router._edge_changed`), so the re-plans after a fault grow the trees
that survived it.  :meth:`Router.invalidate` is for real topology mutation
(edges added to or removed from the graph) only.
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

    A plan is its ``path``: ``edges`` (the directed hops) and ``hop_count``
    are read off it, not stored.  ``latency`` is the Dijkstra distance (not
    a re-summation of edge weights), so it is bit-identical to what the
    shortest-path search reported.
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

    __slots__ = ("path", "links", "latency", "hop_count",
                 "_bottleneck", "uplink", "head_latency", "head_inv_bandwidth",
                 "stage", "packets", "bytes", "payloads")

    def __init__(self, path: tuple[int, ...], latency: float,
                 links: tuple[DirectedLink, ...] = (),
                 narrow: float = float("inf")) -> None:
        self.path = path
        self.links = links
        self.latency = latency
        self.hop_count = len(path) - 1
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

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The directed hops ``(a, b)`` of the path, in order."""
        path = self.path
        return tuple(zip(path, path[1:]))

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
        # it is several times faster than per-edge attribute-dict access.
        self._adjacency: Optional[dict[int, list[tuple[int, float]]]] = None
        # The nodes with exactly one enabled neighbour (on a transit-stub
        # underlay: the hosts), kept beside _adjacency and patched with it.
        self._leaves: set[int] = set()
        # Dijkstra results kept across the edge events that cannot have
        # moved them: source -> (dist, pred) over at least the nodes its
        # plans were asked for.
        self._sssp_cache: dict[int, tuple[dict[int, float], dict[int, Optional[int]]]] = {}
        # Bridges of the enabled graph (see _bridge_sides).
        self._sides: Optional[tuple[dict[int, int], dict]] = None
        self._above: Optional[dict[int, tuple[Optional[int], int]]] = None
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
        """:meth:`_neighbours` of every node (and :attr:`_leaves` with it)."""
        if self._adjacency is None:
            self._adjacency = {node: self._neighbours(node)
                               for node in self._graph.adj}
            self._leaves = {node for node, neighbours in self._adjacency.items()
                            if len(neighbours) == 1}
        return self._adjacency

    def _bridge_sides(self) -> tuple[dict[int, int], dict]:
        """DFS entry times and, for each bridge of the enabled graph in both
        directions, ``(v, u) -> (lo, hi, inside)``: crossing v -> u leads
        only to nodes whose entry time t has ``(lo <= t <= hi) == inside``
        (a bridge is a tree edge of every DFS, and one side of it is exactly
        the DFS subtree of its later-entered end; it is a bridge when nothing
        in that subtree reaches, ``low``, as far back as the other end).

        The same pass sets ``_above``: for every node, the bridge above its
        2-edge-connected component as ``(parent end, child end)``, and
        ``(None, root)`` in the component of a DFS root, so two nodes are
        connected exactly when their walks up end at the same root.

        A degree-1 neighbour is entered and closed where it is found, with
        no stack frame: its subtree is itself and its one edge a bridge, so
        the numbering, ``sides`` and ``_above`` are those of the full DFS.
        """
        adjacency = self._adj()
        leaves = self._leaves
        entry: dict[int, int] = {}
        low: dict[int, int] = {}
        sides = {}
        above: dict[int, tuple[Optional[int], int]] = {}
        unplaced: list[int] = []    # entered, component not yet closed
        for root in adjacency:
            if root in entry:
                continue
            entry[root] = low[root] = len(entry)
            unplaced.append(root)
            stack = [(root, None, iter(adjacency[root]))]
            while stack:
                node, parent, neighbours = stack[-1]
                for other, _ in neighbours:
                    if other not in entry:
                        if other in leaves:     # entered and closed at once
                            entry[other] = at = len(entry)
                            sides[node, other] = (at, at, True)
                            sides[other, node] = (at, at, False)
                            above[other] = node, other
                            continue
                        entry[other] = low[other] = len(entry)
                        unplaced.append(other)
                        stack.append((other, node, iter(adjacency[other])))
                        break
                    if other != parent and entry[other] < low[node]:
                        low[node] = entry[other]
                else:           # subtree done: it is entry[node]..len(entry)-1
                    stack.pop()
                    if parent is None:
                        bridge = None, root
                    elif low[node] > entry[parent]:
                        side = entry[node], len(entry) - 1
                        sides[parent, node] = (*side, True)
                        sides[node, parent] = (*side, False)
                        bridge = parent, node
                    else:
                        if low[node] < low[parent]:
                            low[parent] = low[node]
                        continue
                    # node heads a component: its unplaced subtree.
                    member = None
                    while member != node:
                        member = unplaced.pop()
                        above[member] = bridge
        self._sides, self._above = (entry, sides), above
        return self._sides

    def _dijkstra(self, source: int, target: Optional[int] = None,
                  tree: Optional[tuple[dict[int, float], dict[int, Optional[int]]]] = None,
                  bridge: Optional[tuple[int, int]] = None,
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

        Given *source*'s *tree* and a *bridge* ``(v, u)`` out of it (v
        settled, nothing behind u), the search grows that tree in place from
        u, entered at ``dist[v] + w(v, u)``, instead of starting at
        *source*.  Behind a bridge nothing is reached but through it, so the
        search pops those nodes in the (distance, push) order the one from
        *source* does, and makes the same entries.

        A whole-graph search pushes no degree-1 node: it gets exactly one
        offer, from its one neighbour, so it is entered from that offer after
        the loop.  Leaving a push out lowers every later tie counter by one
        and keeps the order of all the others.
        """
        adjacency = self._adj()
        if source not in adjacency:
            raise RoutingError(f"source {source} not in topology")
        entry, sides = ({}, {}) if target not in adjacency else \
            self._sides or self._bridge_sides()
        goal, side_of = entry.get(target), sides.get
        if tree is None:
            dist: dict[int, float] = {}
            pred: dict[int, Optional[int]] = {source: None}
            start, d = source, 0
        else:
            (dist, pred), (near, start) = tree, bridge
            d = dist[near] + dict(adjacency[near])[start]
            pred[start] = near
        seen: dict[int, float] = {start: d}
        seen_get = seen.get
        leaves = () if sides else self._leaves
        offers: list[tuple[int, int, float]] = []     # (leaf, from, dist)
        tie = 0
        fringe: list[tuple[float, int, int]] = [(d, tie, start)]
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
                elif u in leaves:
                    offers.append((u, v, d + edge_latency))
                    continue
                vu_dist = d + edge_latency
                seen_u = seen_get(u)
                if seen_u is None or vu_dist < seen_u:
                    seen[u] = vu_dist
                    tie += 1
                    heappush(fringe, (vu_dist, tie, u))
                    pred[u] = v
        for u, v, d in offers:
            dist[u] = d
            pred[u] = v
        return dist, pred

    def _sssp(self, source: int, target: Optional[int] = None,
              ) -> tuple[dict[int, float], dict[int, Optional[int]]]:
        """The cached Dijkstra entry of *source*, grown towards *target* if it
        lacks it; without a target, the whole-graph search.

        A search settles whole 2-edge-connected components, those on the
        bridge path from the source's to its target's, so a tree is a
        connected piece of the bridge tree, and a target it lacks lies
        behind the one bridge where the path to the target leaves it: under
        a settled parent end on the way up from the target or, failing
        that, under an unsettled one on the way up from the source.  The
        tree grows across that bridge (:meth:`_dijkstra`).

        Two nodes are connected exactly when their walks up the bridges end
        at the same root, so a target in another piece of the graph raises
        :class:`RoutingError` before any search: no tree is built or grown
        for it, and a cached one stays as it is.
        """
        tree = self._sssp_cache.get(source)
        if target is None:
            tree = self._sssp_cache[source] = self._dijkstra(source)
        elif tree is None or target not in tree[0]:
            if self._sides is None:
                self._bridge_sides()
            above = self._above
            if target in above and source in above:
                over_target = self._bridges_above(target)
                over_source = self._bridges_above(source)
                if over_source[-1] != over_target[-1]:
                    raise RoutingError(f"no route from {source} to {target}")
            if tree is None:
                tree = self._sssp_cache[source] = self._dijkstra(source, target)
            elif target in above:
                dist = tree[0]
                crossing = next(((parent, child) for parent, child in over_target
                                 if parent in dist), None) or \
                    next((child, parent) for parent, child in over_source
                         if parent not in dist)
                self._dijkstra(source, target, tree, crossing)
        return tree

    def _bridges_above(self, node: int) -> list[tuple[Optional[int], int]]:
        """The bridges above *node*, ending with ``(None, root)``."""
        above = self._above
        bridges = [above[node]]
        while bridges[-1][0] is not None:
            bridges.append(above[bridges[-1][0]])
        return bridges

    def plan(self, src_node: int, dst_node: int) -> RoutePlan:
        """The cached :class:`RoutePlan` from *src_node* to *dst_node*."""
        key = (src_node, dst_node)
        cached = self._plan_cache.get(key)
        if cached is None:
            cached = self._plan_cache[key] = self._build_plan(src_node, dst_node)
        return cached

    def _build_plan(self, src_node: int, dst_node: int) -> RoutePlan:
        if src_node == dst_node:
            return RoutePlan((src_node,), 0.0)
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
        links = self._links
        if not links:
            return RoutePlan(path, latency)
        return RoutePlan(path, latency,
                         tuple([links[edge] for edge in zip(path, path[1:])]),
                         self._narrow)

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
                graph = self._graph
                bottleneck = min(graph[u][v][BANDWIDTH_ATTR]
                                 for u, v in plan.edges)
            else:
                bottleneck = float("inf")
            plan._bottleneck = bottleneck
        return bottleneck

    def hop_count(self, src_node: int, dst_node: int) -> int:
        """Number of links on the latency-shortest path."""
        return self.plan(src_node, dst_node).hop_count

    # ------------------------------------------------------------ fault hooks
    def _edge_changed(self, u: int, v: int, weight: Optional[float] = None,
                      heal: bool = False) -> None:
        """Edge (u, v) changed: re-read its two adjacency lists and drop the
        cached trees the change can have moved, each by an O(1) test.

        Without a *weight* the edge went away or got no shorter.  A tree
        survives unless the edge is one of its tree edges: removing or
        lengthening any other edge only removes or raises an offer that
        lost, and a push taken out of the heap lowers the later tie
        counters alike, so first-seen-wins picks the same predecessors.

        With the *weight* it now has, the edge came back (*heal*) or got
        shorter.  A tree covering both ends survives if neither end's offer
        to the other reaches its distance; an exact tie could flip
        first-seen-wins, so the test is strict.  A tree covers whole
        2-edge-connected components, so an edge with one end in it is a
        bridge out of it, and one with no end in it lies behind such a
        bridge: a reweigh moves neither.  A heal keeps such a tree only when
        the edge joins one piece to itself (``_above`` still holds the
        pieces before the heal); otherwise it can close a cycle through the
        tree, and a tree with one end of it is dropped too.
        """
        if self._adjacency is not None:
            leaves = self._leaves
            for node in (u, v):
                self._adjacency[node] = neighbours = self._neighbours(node)
                if len(neighbours) == 1:
                    leaves.add(node)
                else:
                    leaves.discard(node)
        trees = self._sssp_cache
        if weight is None:
            stale = [source for source, (_, pred) in trees.items()
                     if pred.get(v) == u or pred.get(u) == v]
        else:
            above = self._above
            one_piece = not heal or above is not None and above[u] == above[v]
            stale = []
            for source, (dist, _) in trees.items():
                at_u, at_v = dist.get(u), dist.get(v)
                if at_u is not None and at_v is not None:
                    keep = at_u + weight > at_v and at_v + weight > at_u
                elif at_u is None and at_v is None:
                    keep = one_piece
                else:
                    keep = not heal
                if not keep:
                    stale.append(source)
        for source in stale:
            del trees[source]

    def _drop_users(self, u: int, v: int) -> None:
        """Edge (u, v) went away or got slower: drop the plans whose path
        traverses it.  Every other plan is kept: removing or lengthening an
        edge never shortens a route that avoids it, and a fresh Dijkstra
        still makes the same choice at every node of a kept path.

        A path holds a node once, so a plan crosses the edge exactly when
        ``u`` is on its path with ``v`` beside it."""
        plans = self._plan_cache
        stale = []
        for key, plan in plans.items():
            path = plan.path
            if u in path:
                at = path.index(u)
                if v in path[max(at - 1, 0):at + 2]:
                    stale.append(key)
        for key in stale:
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
        stale = [(src, dst) for (src, dst), plan in plans.items()
                 if min(from_u(src, inf) + from_v(dst, inf),
                        from_v(src, inf) + from_u(dst, inf)) + weight
                 <= plan.latency * (1 + 1e-9)]
        for key in stale:
            plans.pop(key).fold()

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
        weight = self._graph[u][v][LATENCY_ATTR]
        self._edge_changed(u, v, weight, heal=True)     # reads the old pieces
        self._bridge_sides()            # at once, as in disable_edge
        self._drop_beneficiaries(u, v, weight)

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
        data = self._graph[u][v]
        shorter = latency < data[LATENCY_ATTR]
        data[LATENCY_ATTR] = latency
        if (u, v) in self._disabled_edges:
            return
        # Same bridges, new weights.
        self._edge_changed(u, v, latency if shorter else None)
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
        self._adjacency = self._sides = self._above = None
        self._leaves = set()
        self._narrow = self._topology.access_bandwidth()
        self._sssp_cache.clear()
        for plan in self._plan_cache.values():
            plan.fold()
        self._plan_cache.clear()
        for callback in self._invalidation_listeners:
            callback()
