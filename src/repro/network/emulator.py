"""Packet-level network emulator (the ModelNet analogue).

The emulator owns the topology, the global router, and the per-link queue
state.  Hosts register a receive callback; a packet submitted with
:meth:`NetworkEmulator.send` is walked hop-by-hop along the shortest underlay
path, accumulating transmission, queueing, and propagation delay at every
link, and is delivered (or dropped) at the destination via the simulator's
event queue.

``send()`` is the hottest function in the repository after the event loop
itself, so the per-hop work is precomputed: the first packet between a pair
of attachment routers has the router build a
:class:`~repro.network.router.RoutePlan` — the :class:`DirectedLink` objects
in hop order plus the shared path tuple — and every subsequent packet reads
that plan straight out of the router's cache and replays it with zero dict
lookups per hop, no path copy, and no label formatting.  There is one route
cache, the router's, so a fault prunes it once.  See docs/PERFORMANCE.md.

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

    @property
    def loss_rate(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return self.packets_dropped / self.packets_sent


class Host:
    """A host attached to the emulated network."""

    __slots__ = ("address", "node", "receive", "delivered", "dropped",
                 "attached")

    def __init__(self, address: HostAddress,
                 receive: Optional[ReceiveCallback] = None) -> None:
        self.address = address
        #: Topology attachment point, denormalised from ``address`` so the
        #: send path reads one attribute instead of two.
        self.node = address.topology_node
        self.receive = receive
        #: Per-host delivery counters, handy in tests.
        self.delivered = 0
        self.dropped = 0
        #: False while the host is detached (fail-stop crash); packets to or
        #: from a detached host are dropped instead of raising.
        self.attached = True


class NetworkEmulator:
    """Hop-by-hop packet emulator over a :class:`Topology`."""

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
        self._rng = simulator.fork_rng("network-emulator")
        #: Per-source-host loss streams inside a shard worker (see
        #: :meth:`send`); ``None`` outside one.
        self._loss_rngs: Optional[dict] = None
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
        # Hosts degraded via degrade_host: address -> edges it degraded.
        self._degraded_hosts: dict[int, list[tuple[int, int]]] = {}
        # Bound-method caches for the per-packet path (skips one descriptor
        # lookup per send and per delivery).
        self._schedule_fast = simulator.schedule_fast
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
        if (min(u, v), max(u, v)) not in self.router.disabled_edges():
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
        No per-packet filtering is involved: the per-hop transit loop reads
        the mutated link fields directly, and the no-fault hot path is
        untouched.
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
        key = (min(u, v), max(u, v))
        if key not in self._degraded_edges:
            data = self.topology.graph[u][v]
            self._degraded_edges[key] = (data[LATENCY_ATTR],
                                         data[BANDWIDTH_ATTR])
        base_latency, base_bandwidth = self._degraded_edges[key]
        self.topology.graph[u][v][BANDWIDTH_ATTR] = \
            base_bandwidth * bandwidth_factor
        for direction in ((u, v), (v, u)):
            self._links[direction].degrade(bandwidth_factor=bandwidth_factor,
                                           latency_factor=latency_factor)
        # Router last: it writes the graph latency attribute and prunes
        # exactly the plans that crossed the now-slower edge.
        self.router.reweigh_edge(u, v, base_latency * latency_factor)

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
        for u, v in edges:
            self.degrade_edge(u, v, bandwidth_factor=bandwidth_factor,
                              latency_factor=latency_factor)
        self._degraded_hosts[address] = edges

    def restore_host(self, address: int) -> None:
        """Undo :meth:`degrade_host`.  Idempotent."""
        for u, v in self._degraded_hosts.pop(address, ()):  # type: ignore[arg-type]
            self.restore_edge(u, v)

    # ------------------------------------------------------------------ routes
    def _route(self, src_node: int, dst_node: int) -> RoutePlan:
        """The plan (links + path) between two attachment routers."""
        return (self._plans.get((src_node, dst_node))
                or self.router.plan(src_node, dst_node))

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

        Returns ``True`` if the packet was accepted and will be delivered,
        ``False`` if it was dropped (queue overflow or random loss).  Delivery
        happens asynchronously via the simulator.

        **In a shard worker** (:meth:`install_cross_shard_egress` ran) the
        link physics is traffic-independent, because a shard sees only its
        own nodes' sends and two properties of this send depend on the
        *global* interleaving of sends.  Per-link ``next_free`` occupancy
        would be shard-local queue state and delays would drift with the
        partition, so a worker models transmission + propagation but no
        queueing wait (and therefore no queue-overflow drops): a packet's
        delay is a pure function of its route and size.  And the shared loss
        RNG is consumed in global send order, so in a worker each *source
        host* draws from its own stream, forked as ``loss-<address>``: a
        host's send sequence does not depend on the partition.  Both make
        fixed-seed sharded results identical for every shard count K > 1
        (and stable across repeats), at the cost of not reproducing the
        single-process run's contention effects — docs/PERFORMANCE.md,
        "Sharded execution", spells out the trade.
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
        stats = self.stats
        stats.packets_sent += 1

        if self._faults_active:
            # Crash/partition checks live behind one flag so the fault-free
            # hot path costs a single predictable branch per packet.
            if not (src_host.attached and dst_host.attached):
                stats.packets_dropped += 1
                dst_host.dropped += 1
                return False
            partition = self._partition_of
            if partition is not None and \
                    partition.get(packet.src, 0) != partition.get(packet.dst, 0):
                stats.packets_dropped += 1
                dst_host.dropped += 1
                return False
            if self._directed_cuts:
                # Asymmetric cuts are invisible to routing, so the route is
                # resolved early (cache-hit for the re-resolution below; no
                # RNG is consumed, keeping the loss draw sequence intact) and
                # the packet blackholed if any hop's direction is dead.
                try:
                    route = self._route(src_host.node, dst_host.node)
                except RoutingError:
                    stats.packets_dropped += 1
                    dst_host.dropped += 1
                    return False
                for link in route.links:
                    if not link.enabled:
                        link.drops += 1
                        stats.packets_dropped += 1
                        dst_host.dropped += 1
                        return False

        loss_rngs = self._loss_rngs
        if self.random_loss_rate:
            if loss_rngs is None:
                rng = self._rng
            else:
                rng = loss_rngs.get(packet.src)
                if rng is None:
                    rng = self.simulator.fork_rng(f"loss-{packet.src}")
                    loss_rngs[packet.src] = rng
            if rng.random() < self.random_loss_rate:
                stats.packets_dropped += 1
                dst_host.dropped += 1
                return False

        route = self._plans.get((src_host.node, dst_host.node))
        if route is None:
            try:
                route = self.router.plan(src_host.node, dst_host.node)
            except RoutingError:
                # Link cuts severed every underlay path: the packet is lost,
                # not an error — overlays are expected to ride this out.
                stats.packets_dropped += 1
                dst_host.dropped += 1
                return False
        packet.path = route.path
        wire_size = packet.wire_size
        total_delay = 0.0
        if loss_rngs is not None:
            # Shard worker: the contention-free hop loop.
            for link in route.links:
                link.packets += 1
                link.bytes += wire_size
                if payload_tag is not None:
                    payloads = link.overlay_payloads
                    payloads[payload_tag] = payloads.get(payload_tag, 0) + 1
                total_delay += wire_size / link.bandwidth + link.latency
        else:
            for link in route.links:
                # Inlined DirectedLink.try_transit — one method call per hop
                # is measurable at 100k+ packets/sec, and this loop must stay
                # float-op-for-float-op identical to it (same delay
                # accumulation order) so fixed-seed metrics do not drift.
                hop_now = now + total_delay
                queue_delay = link.next_free - hop_now
                if queue_delay < 0.0:
                    queue_delay = 0.0
                if queue_delay > link.max_queue_delay:
                    link.drops += 1
                    stats.packets_dropped += 1
                    dst_host.dropped += 1
                    return False
                transmission = wire_size / link.bandwidth
                link.next_free = hop_now + queue_delay + transmission
                link.packets += 1
                link.bytes += wire_size
                if payload_tag is not None:
                    payloads = link.overlay_payloads
                    payloads[payload_tag] = payloads.get(payload_tag, 0) + 1
                # Queue state is advanced at submission time; this
                # approximates store-and-forward pipelining well enough for
                # our metrics.
                total_delay += queue_delay + transmission + link.latency
        packet.hops = route.hop_count
        self._schedule_fast(total_delay, self._deliver_callback, packet)
        return True

    def install_cross_shard_egress(
            self, shard_of_address: dict[int, int], shard_id: int,
            capture: Callable[[float, int, int, Packet], None]) -> None:
        """Divert deliveries to hosts owned by other shards into *capture*.

        The send path schedules every delivery through the ``_schedule_fast``
        bound-method cache; swapping that attribute intercepts packets at
        *send* time — the only safe point, because by delivery time the
        destination shard may already have simulated past the arrival.  A
        diverted packet costs its full per-hop route walk first, so link
        counters and the computed delay come from the owning shard;
        ``capture(arrival_time, dst_shard, dst_address, packet)`` then hands
        it to the shard mailbox instead of the local event queue.  Local
        deliveries keep the original one-call fast path.

        This also gives :meth:`send` its per-source-host loss streams, which
        is how it knows it runs in a shard worker (see its docstring).
        """
        inner = self._schedule_fast
        deliver = self._deliver_callback
        simulator = self.simulator

        def egress(delay: float, callback, packet) -> None:
            if callback is deliver:
                dst_shard = shard_of_address.get(packet.dst, shard_id)
                if dst_shard != shard_id:
                    capture(simulator._now + delay, dst_shard,
                            packet.dst, packet)
                    return
            inner(delay, callback, packet)

        self._schedule_fast = egress
        self._loss_rngs = {}

    def install_delivery_wrapper(
            self, wrap: Callable[[Callable[[Packet], None]],
                                 Callable[[Packet], None]]) -> None:
        """Swap the delivery callback for ``wrap(current)`` (observability).

        Uses the same bound-method-cache swap as the sharded egress hook:
        the send paths schedule ``self._deliver_callback`` read per call, so
        replacing the attribute reroutes every future delivery — including
        packets re-entering via :meth:`inject_delivery` — at zero cost to
        the uninstrumented run.

        Ordering matters in shard workers: this must run *before*
        :meth:`install_cross_shard_egress`, whose egress closure captures
        the delivery callback by identity to tell deliveries apart from
        other fast events.  A wrapper installed after it would make
        cross-shard packets miss the export check and deliver locally.
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

    def inject_delivery(self, delay: float, packet: Packet) -> None:
        """Schedule a delivery for a packet that arrived from another shard.

        The barrier merge already fixed the deterministic injection order;
        this just re-enters the normal delivery path, so destination-side
        stats (``packets_delivered``, ``bytes_delivered`` — the WireCodec
        size model travels inside the packet) match the single-process run.
        """
        self.simulator.schedule_fast(delay, self._deliver_callback, packet)

    def _deliver(self, packet: Packet) -> None:
        host = self._hosts.get(packet.dst)
        if host is None or not host.attached:
            # Host detached while the packet was in flight.
            self.stats.packets_dropped += 1
            return
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.size
        host.delivered += 1
        receive = host.receive
        if receive is not None:
            receive(packet)

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

    def link_stats(self) -> dict[tuple[int, int], "LinkStatsView"]:
        """Per-directed-link traffic counters (for link-stress metrics)."""
        return {key: LinkStatsView(link) for key, link in self._links.items()}


class LinkStatsView:
    """Read-only view over one link's counters."""

    def __init__(self, link: DirectedLink) -> None:
        self._link = link

    @property
    def packets(self) -> int:
        return self._link.packets

    @property
    def bytes(self) -> int:
        return self._link.bytes

    @property
    def drops(self) -> int:
        return self._link.drops

    @property
    def max_stress(self) -> int:
        return self._link.max_stress
