"""Packet-level network emulator (the ModelNet analogue).

The emulator owns the topology, the global router, and the per-link queue
state.  Hosts register a receive callback; a packet submitted with
:meth:`NetworkEmulator.send` follows the shortest underlay path, pays
transmission and propagation delay on every link and queueing delay wherever
a queue can form, and is delivered (or dropped) through the simulator's event
queue.

**One link physics, evaluated in arrival order.**  A link's queue is only
ever touched by a packet that is standing at it (ModelNet's pipes, the ns
lineage's queue-plus-delay links) — never at submission time with an arrival
time that has not happened yet.  Which links queue:

* **the sender's uplink** (hop 0) — inside ``send``; the packet is there now;
* **the destination's downlink** (the last hop) and every **narrow** link in
  between (no faster than the fastest client access link of the topology,
  e.g. ``dumbbell_topology``'s middle link, or currently degraded; every link
  of a topology without ``client`` nodes) — inside the event scheduled for
  the instant the packet would reach that link's far end were the link idle.
  A busy link costs one more event, for the wait;
* **core links do not**: a link faster than anything a host can feed carries
  many access links' traffic at a few percent utilisation, so its queueing is
  noise next to one access link's transmission time.  Their delays are two
  constants cached on the route plan (``Σ 1/bandwidth``, ``Σ latency``).

``send`` therefore does constant work per packet — one plan lookup, one
uplink queue, one event — and so does a delivery.  Packets are ordered at a
queue point by the instant they would *clear* it, so one may overtake another
that reached the link less than one transmission time earlier.  The traffic
counters (``packets`` / ``bytes`` / ``overlay_payloads``) are kept per plan,
for the packets the uplink admitted, and folded into the links by
:meth:`link_stats` and when the router retires a plan; ``drops`` is counted
at the link.  See docs/PERFORMANCE.md, "The data path".

The emulator also doubles as the source of the *global knowledge* the paper's
evaluation framework extracts from ModelNet/ns: direct IP latency between any
two hosts, the underlay path of any overlay edge, and per-link traffic
counters used for link-stress metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..runtime.engine import Simulator
from .addressing import AddressAllocator, AddressError, HostAddress
from .links import DirectedLink
from .packet import Packet
from .router import RoutePlan, Router, RoutingError
from .topology import BANDWIDTH_ATTR, LATENCY_ATTR, Topology, TopologyError

ReceiveCallback = Callable[[Packet], None]


@dataclass
class EmulatorStats:
    """Aggregate counters across the whole emulated network."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    bytes_delivered: int = 0


class Host:
    """A host attached to the emulated network."""

    __slots__ = ("address", "node", "receive", "attached", "loss_rng")

    def __init__(self, address: HostAddress,
                 receive: Optional[ReceiveCallback] = None) -> None:
        self.address = address
        #: Topology attachment point, denormalised from ``address`` so the
        #: send path reads one attribute instead of two.
        self.node = address.topology_node
        self.receive = receive
        #: False while the host is detached (fail-stop crash); packets to or
        #: from a detached host are dropped instead of raising.
        self.attached = True
        #: This host's random-loss stream, forked on its first lossy send: a
        #: host's losses depend on what it sent, not on who else was sending.
        self.loss_rng = None


class NetworkEmulator:
    """Packet emulator over a :class:`Topology`."""

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        *,
        random_loss_rate: float = 0.0,
        max_queue_delay: float = 0.5,
    ) -> None:
        if not 0.0 <= random_loss_rate <= 1.0:
            raise ValueError("random_loss_rate must be in [0, 1]")
        self.simulator = simulator
        self.topology = topology
        self.random_loss_rate = random_loss_rate
        self._allocator = AddressAllocator()
        self._hosts: dict[int, Host] = {}
        self._links: dict[tuple[int, int], DirectedLink] = {}
        self.router = Router(topology, self._links)
        # The router's (src router, dst router) -> RoutePlan cache, the only
        # route cache there is: send() reads hits straight from the dict and
        # calls Router.plan once per miss.
        self._plans = self.router._plan_cache
        # O(1)-amortised auto-attachment: nodes already hosting someone, and a
        # cursor over ``topology.clients`` marking how far allocation got.
        self._used_attachments: set[int] = set()
        self._client_cursor = 0
        self._max_queue_delay = max_queue_delay
        self.stats = EmulatorStats()
        # Fault-injection state.  ``_faults_active`` gates one branch in
        # send(); it is False until the first detach/partition, so the
        # no-fault hot path is byte-identical to the pre-fault-hook emulator.
        self._faults_active = False
        self._detached_count = 0
        self._partition_of: Optional[dict[int, int]] = None
        # One-directional blackholes: (u, v) pairs whose u->v DirectedLink is
        # cut while v->u (and routing over the undirected edge) stays up.
        # Non-empty set => the fault branch filters per packet.
        self._directed_cuts: set[tuple[int, int]] = set()
        # Degraded undirected edges: canonical (min, max) -> original
        # (latency, bandwidth), so restore_edge is exact.
        self._degraded_edges: dict[tuple[int, int], tuple[float, float]] = {}
        # Hosts degraded via degrade_host, oldest first: address -> (edges, factors).
        self._degraded_hosts: dict[int, tuple[list[tuple[int, int]], dict]] = {}
        # Bound-method caches for the per-packet path (skips one descriptor
        # lookup per send and per delivery).
        self._schedule = simulator.schedule
        self._deliver_callback = self._deliver
        self._build_links()
        # Edges added to the graph get their links even when callers
        # invalidate at the router level rather than through us.
        self.router.add_invalidation_listener(self._build_links)

    # ------------------------------------------------------------------ setup
    def _build_links(self) -> None:
        for u, v, data in self.topology.graph.edges(data=True):
            latency = data[LATENCY_ATTR]
            bandwidth = data[BANDWIDTH_ATTR]
            if (u, v) not in self._links:
                self._links[(u, v)] = DirectedLink(
                    src=u, dst=v, latency=latency, bandwidth=bandwidth,
                    max_queue_delay=self._max_queue_delay,
                )
            if (v, u) not in self._links:
                self._links[(v, u)] = DirectedLink(
                    src=v, dst=u, latency=latency, bandwidth=bandwidth,
                    max_queue_delay=self._max_queue_delay,
                )

    def attach_host(self, topology_node: Optional[int] = None,
                    receive: Optional[ReceiveCallback] = None) -> HostAddress:
        """Attach a new host and return its address.

        If *topology_node* is None, the next unused client attachment point is
        used (in the order the topology generator listed them).  Attaching N
        hosts is O(N + num_clients) total: a cursor walks the client list once
        instead of rebuilding the used-set per call.
        """
        if topology_node is None:
            clients = self.topology.clients
            if not clients:
                raise TopologyError(
                    f"topology {self.topology.name!r} has no client attachment "
                    f"points; generate it with num_clients >= 1 (or pass an "
                    f"explicit topology_node to attach_host)")
            while self._client_cursor < len(clients):
                candidate = clients[self._client_cursor]
                if candidate not in self._used_attachments:
                    topology_node = candidate
                    break
                self._client_cursor += 1
            else:
                # All dedicated client slots taken: reuse round-robin.
                topology_node = clients[len(self._hosts) % len(clients)]
        if topology_node not in self.topology.graph:
            raise AddressError(f"attachment point {topology_node} not in topology")
        address = self._allocator.allocate(topology_node)
        self._hosts[address.address] = Host(address=address, receive=receive)
        self._used_attachments.add(topology_node)
        return address

    def set_receive_callback(self, address: int, receive: ReceiveCallback) -> None:
        self._host(address).receive = receive

    def _host(self, address: int) -> Host:
        try:
            return self._hosts[address]
        except KeyError as exc:
            raise AddressError(f"unknown host address {address}") from exc

    @property
    def hosts(self) -> list[HostAddress]:
        return [host.address for host in self._hosts.values()]

    # ------------------------------------------------------------ fault hooks
    def _recompute_faults_active(self) -> None:
        self._faults_active = (self._detached_count > 0
                               or self._partition_of is not None
                               or bool(self._directed_cuts))

    def detach_host(self, address: int) -> None:
        """Fail-stop a host: packets to or from it are dropped, not raised.

        The host keeps its address and attachment point so
        :meth:`reattach_host` restores it exactly where it was (the scenario
        engine's crash/recover cycle).  Idempotent.
        """
        host = self._host(address)
        if host.attached:
            host.attached = False
            self._detached_count += 1
            self._recompute_faults_active()

    def reattach_host(self, address: int) -> None:
        """Undo :meth:`detach_host`.  Idempotent."""
        host = self._host(address)
        if not host.attached:
            host.attached = True
            self._detached_count -= 1
            self._recompute_faults_active()

    def disable_link(self, u: int, v: int) -> None:
        """Cut the undirected topology edge (u, v).

        Both :class:`DirectedLink` directions are flagged and the router drops
        exactly the plans that crossed the edge.  Packets already resolved
        and scheduled keep flying; packets planned after the cut route around
        it, or are dropped if no path remains.
        """
        self.router.disable_edge(u, v)
        for direction in ((u, v), (v, u)):
            link = self._links.get(direction)
            if link is not None:
                link.disable()

    def enable_link(self, u: int, v: int) -> None:
        """Heal a previously cut edge: the router drops only the plans the
        restored edge could shorten.  A direction that is still blackholed by
        :meth:`disable_link_direction` stays down."""
        self.router.enable_edge(u, v)
        for direction in ((u, v), (v, u)):
            link = self._links.get(direction)
            if link is not None and direction not in self._directed_cuts:
                link.enable()

    def partition_hosts(self, groups: "list[list[int]]") -> None:
        """Install a host-level partition: a packet whose source and
        destination host addresses fall in different groups is dropped.

        *groups* are lists of host addresses; hosts not listed form their
        own implicit group (index ``0`` — listed groups are numbered from
        ``1``), so a single listed group really is isolated from everyone
        else.  This is the testbed-style partition (per-host filtering, like
        iptables rules on a ModelNet edge node); :meth:`disable_link` is the
        physical-layer alternative for cutting specific underlay edges.
        """
        partition: dict[int, int] = {}
        for index, members in enumerate(groups):
            for address in members:
                self._host(address)  # validate
                partition[int(address)] = index + 1
        self._partition_of = partition
        self._recompute_faults_active()

    def heal_partition(self) -> None:
        """Remove the host-level partition installed by :meth:`partition_hosts`."""
        self._partition_of = None
        self._recompute_faults_active()

    def disable_link_direction(self, u: int, v: int) -> None:
        """Blackhole the u->v direction of an edge (asymmetric partition).

        Unlike :meth:`disable_link`, routing is *not* told: the edge stays in
        every plan (real asymmetric faults — misconfigured filters, one dead
        transceiver — are invisible to shortest-path routing), and packets
        whose resolved route crosses the dead direction are dropped at send
        time.  The check lives inside the ``_faults_active`` branch, so the
        no-fault hot path is unchanged.  Idempotent.
        """
        if not self.topology.graph.has_edge(u, v):
            raise RoutingError(
                f"cannot cut link direction ({u}, {v}): not in topology")
        if (u, v) in self._directed_cuts:
            return
        self._directed_cuts.add((u, v))
        self._links[(u, v)].disable()
        self._recompute_faults_active()

    def enable_link_direction(self, u: int, v: int) -> None:
        """Heal a one-directional cut; the link itself stays down while the
        whole edge is cut by :meth:`disable_link`.  Idempotent."""
        if (u, v) not in self._directed_cuts:
            return
        self._directed_cuts.discard((u, v))
        if not self.router.edge_disabled(u, v):
            self._links[(u, v)].enable()
        self._recompute_faults_active()

    def degrade_edge(self, u: int, v: int, *, bandwidth_factor: float = 1.0,
                     latency_factor: float = 1.0) -> None:
        """Degrade an underlay edge at runtime: scale its bandwidth down by
        ``bandwidth_factor`` and its latency up by ``latency_factor``.

        Both :class:`DirectedLink` directions and the topology graph
        attributes are updated, and the router reweighs the edge with the
        same *targeted* invalidation :meth:`disable_link` uses (lengthening
        an edge never invalidates a plan that avoids it).  Factors apply to
        the edge's original values, so repeated degrades do not compound.
        No per-packet filtering is involved: every plan over the edge is
        rebuilt from the mutated link fields.
        """
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1] "
                             "(degradation only slows links down)")
        if latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1 "
                             "(degradation only slows links down)")
        if not self.topology.graph.has_edge(u, v):
            raise RoutingError(
                f"cannot degrade edge ({u}, {v}): not in topology")
        data = self.topology.graph[u][v]
        base_latency, base_bandwidth = self._degraded_edges.setdefault(
            (min(u, v), max(u, v)), (data[LATENCY_ATTR], data[BANDWIDTH_ATTR]))
        data[BANDWIDTH_ATTR] = base_bandwidth * bandwidth_factor
        for direction in ((u, v), (v, u)):
            self._links[direction].degrade(bandwidth_factor=bandwidth_factor,
                                           latency_factor=latency_factor)
        # Router last: it writes the graph latency attribute and prunes
        # exactly the plans the edge can have changed (a re-degrade by a
        # smaller factor makes it faster).
        latency = base_latency * latency_factor
        self.router.reweigh_edge(u, v, latency,
                                 may_shorten=latency < data[LATENCY_ATTR])

    def restore_edge(self, u: int, v: int) -> None:
        """Undo :meth:`degrade_edge`.  The router drops only the plans the
        faster edge could shorten (as :meth:`enable_link` does).  Idempotent
        for edges that are not degraded."""
        key = (min(u, v), max(u, v))
        original = self._degraded_edges.pop(key, None)
        if original is None:
            return
        base_latency, base_bandwidth = original
        self.topology.graph[u][v][BANDWIDTH_ATTR] = base_bandwidth
        for direction in ((u, v), (v, u)):
            self._links[direction].restore()
        self.router.reweigh_edge(u, v, base_latency, may_shorten=True)

    def degrade_host(self, address: int, *, bandwidth_factor: float = 1.0,
                     latency_factor: float = 1.0) -> None:
        """Slow-node model: degrade every edge incident to the host's
        attachment router (its access links), via :meth:`degrade_edge`."""
        host = self._host(address)
        edges = [(host.node, neighbour)
                 for neighbour in self.topology.graph.neighbors(host.node)]
        factors = {"bandwidth_factor": bandwidth_factor,
                   "latency_factor": latency_factor}
        for u, v in edges:
            self.degrade_edge(u, v, **factors)
        self._degraded_hosts.pop(address, None)     # most recent goes last
        self._degraded_hosts[address] = edges, factors

    def restore_host(self, address: int) -> None:
        """Undo :meth:`degrade_host`; an edge another degraded host lists too
        stays degraded, by the most recent such host's factors.  Idempotent."""
        for u, v in self._degraded_hosts.pop(address, ((), None))[0]:
            others = [factors for edges, factors in self._degraded_hosts.values()
                      if (u, v) in edges or (v, u) in edges]
            if others:
                self.degrade_edge(u, v, **others[-1])
            else:
                self.restore_edge(u, v)

    # ------------------------------------------------------------------ routes
    def invalidate(self) -> None:
        """Drop cached routes after edges were added to or removed from the
        topology graph (faults go through the targeted hooks instead).

        Clears the router's caches, then registers links for any edges added
        to the graph (existing links keep their queue state and counters).  Calling ``router.invalidate()`` directly is
        equivalent — the emulator listens for it.
        """
        self.router.invalidate()

    # ------------------------------------------------------------------ send
    def send(self, packet: Packet, payload_tag: Optional[str] = None) -> bool:
        """Inject *packet* into the network.

        Returns ``True`` if the sender's uplink accepted the packet, ``False``
        if it was dropped here (a fault, random loss, no route, or the uplink's
        queue is full).  An accepted packet is delivered asynchronously via
        the simulator — unless a queue further along its route is full when
        it gets there (:meth:`_deliver`).
        """
        hosts = self._hosts
        src_host = hosts.get(packet.src)
        dst_host = hosts.get(packet.dst)
        if src_host is None or dst_host is None:
            missing = packet.src if src_host is None else packet.dst
            raise AddressError(f"unknown host address {missing}")
        # Direct read of the simulator clock (the .now property costs a
        # descriptor call per packet).
        now = self.simulator._now
        packet.created_at = now
        self.stats.packets_sent += 1

        route = self._plans.get((src_host.node, dst_host.node))
        if route is None:
            try:
                route = self.router.plan(src_host.node, dst_host.node)
            except RoutingError:
                # Link cuts severed every underlay path: the packet is lost,
                # not an error — overlays are expected to ride this out.
                return self._drop()

        if self._faults_active:
            # Crash/partition checks live behind one flag so the fault-free
            # hot path costs a single predictable branch per packet.
            if not (src_host.attached and dst_host.attached):
                return self._drop()
            partition = self._partition_of
            if partition is not None and \
                    partition.get(packet.src, 0) != partition.get(packet.dst, 0):
                return self._drop()
            if self._directed_cuts:
                # Asymmetric cuts are invisible to routing: the packet is
                # blackholed if any hop's direction is dead.
                for link in route.links:
                    if not link.enabled:
                        return self._drop()

        if self.random_loss_rate:
            rng = src_host.loss_rng
            if rng is None:
                rng = src_host.loss_rng = self.simulator.fork_rng(
                    f"loss-{packet.src}")
            if rng.random() < self.random_loss_rate:
                return self._drop()

        packet.path = route.path
        wire_size = packet.wire_size
        uplink = route.uplink
        if uplink is None:                  # both hosts on one router
            wait = 0.0
        else:
            # The one queue this packet is standing at right now.
            wait = uplink.enqueue(now, wire_size / uplink.bandwidth)
            if wait < 0.0:
                return self._drop()
        route.packets += 1
        route.bytes += wire_size
        if payload_tag is not None:
            payloads = route.payloads
            if payloads is None:
                payloads = route.payloads = {}
            payloads[payload_tag] = payloads.get(payload_tag, 0) + 1
        # One event: the far end of the first queue point ahead (of the route,
        # when there is none), every link up to there taken as idle.
        self._schedule(
            wait + route.head_latency + wire_size * route.head_inv_bandwidth,
            self._deliver_callback, packet, route.stage)
        return True

    def _drop(self) -> bool:
        """Count a lost packet (and be ``send``'s or ``_deliver``'s ``False``)."""
        self.stats.packets_dropped += 1
        return False

    def _deliver(self, packet: Packet, stage: Optional[tuple] = None) -> bool:
        """The event of a packet in flight; ``True`` if it reached its host.

        With a *stage* (``RoutePlan.stage``) the packet stands at the far end
        of that queue point — there now if the link was idle when the packet
        reached it, which is what this decides, in the order packets clear
        the link.  A busy link costs the packet its wait as one more event, a
        full queue drops it, and past the last point it is at its
        destination.
        """
        if stage is not None:
            link, latency, inv_bandwidth, stage = stage
            wire_size = packet.wire_size
            transmission = wire_size / link.bandwidth
            wait = link.enqueue(
                self.simulator._now - transmission - link.latency, transmission)
            if wait or stage is not None:
                if wait < 0.0:
                    return self._drop()
                self._schedule(
                    wait + latency + wire_size * inv_bandwidth,
                    self._deliver_callback, packet, stage)
                return False
        host = self._hosts[packet.dst]
        if not host.attached:           # detached while the packet flew
            return self._drop()
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.size
        receive = host.receive
        if receive is not None:
            receive(packet)
        return True

    def install_delivery_wrapper(
            self, wrap: Callable[[Callable[..., bool]],
                                 Callable[..., bool]]) -> None:
        """Swap the packet-event callback for ``wrap(current)`` (observability).

        ``send`` and :meth:`_deliver` read ``self._deliver_callback`` per
        call, so replacing the attribute reroutes every future packet event at
        zero cost to the uninstrumented run.  The wrapper is called once per event
        with :meth:`_deliver`'s arguments and must return its result: whether
        this event handed the packet to its host.
        """
        self._deliver_callback = wrap(self._deliver_callback)

    def install_send_tap(self, tap: Callable[[Packet], None]) -> None:
        """Run ``tap(packet)`` before every send (observability).

        All transports resolve ``self.emulator.send`` per call, so an
        instance attribute shadows the class method from here on.
        """
        inner = self.send

        def send_with_tap(packet: Packet,
                          payload_tag: Optional[str] = None) -> bool:
            tap(packet)
            return inner(packet, payload_tag)

        self.send = send_with_tap  # type: ignore[method-assign]

    # --------------------------------------------------------- global queries
    def ip_latency(self, src: int, dst: int) -> float:
        """One-way propagation latency between two *host addresses* (seconds)."""
        return self.router.latency(self._host(src).node, self._host(dst).node)

    def ip_path(self, src: int, dst: int) -> list[int]:
        """Underlay router path between two host addresses."""
        return self.router.path(self._host(src).node, self._host(dst).node)

    def bottleneck_bandwidth(self, src: int, dst: int) -> float:
        return self.router.bottleneck_bandwidth(self._host(src).node,
                                                self._host(dst).node)

    def link_stats(self) -> dict[tuple[int, int], DirectedLink]:
        """The links by ``(u, v)``, their traffic counters brought up to date
        (``packets`` / ``bytes`` / ``drops`` / ``max_stress``, for link-stress
        metrics): folds in what the live plans have counted.  Read-only."""
        for plan in self._plans.values():
            plan.fold()
        return dict(self._links)
