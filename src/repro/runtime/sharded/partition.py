"""Stub-domain host partitioning and lookahead for the sharded kernel.

The transit-stub generator (:func:`repro.network.topology.transit_stub_topology`)
already exposes the natural cut: every client host hangs off exactly one stub
domain (a small clique of ``role == "stub"`` routers), stub domains only reach
each other through the transit core, and consecutive overlay node indices land
in *different* domains (clients attach round-robin).  Partitioning whole
domains onto shards therefore keeps every intra-domain packet shard-local
while spreading the overlay population evenly.

Domains are the connected components of the stub-router subgraph — the same
computation :class:`repro.eval.scenario.CorrelatedCrashModel` uses for its
failure domains, so a "shard" here is exactly a "failure domain" there.
Topologies without stub routers (multi-site, dumbbell) fall back to grouping
clients by access router, and a topology with fewer domains than requested
shards cleanly degrades to ``effective shards = num_domains``.

A packet leaves its sender's shard as the event of its first queue point
after the uplink (see :mod:`repro.network.emulator`) and every queue from
there on is evaluated by the shard of its destination, so each queue must
have one owner: the hosts downstream of a **narrow** link in the middle of a
route (one no faster than a client access link, where the emulator queues —
``dumbbell_topology``'s middle link) are never split across shards;
:func:`plan_shards` refuses a topology whose domains would split them.

The *lookahead* is the conservative window width: the minimum underlay
latency from a host to anything another shard owns — a host, or the far end
of a narrow link.  A packet sent during the window ``(B - W, B]`` has its
exported event no earlier than ``send_time + W > B``, so no destination shard
has simulated past it when the barrier at ``B`` exchanges it.  Queueing and
transmission delays only add to path latency, so the pure propagation
distance is a valid lower bound.  A multiplicative safety margin absorbs the
float difference between the route plan's summed latencies and Dijkstra's
distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...network.router import Router
from ...network.topology import BANDWIDTH_ATTR, ROLE_ATTR, Topology

#: A route plan sums its hops' latencies from the destination backwards, the
#: planner in Dijkstra order; both are float sums of the same terms and can
#: differ by an ulp.  Shrinking the window by one part per
#: billion keeps the conservative guarantee strict.
LOOKAHEAD_SAFETY = 1.0 - 1e-9


class ShardPlanError(ValueError):
    """Raised when a shard plan cannot be built for a topology."""


@dataclass
class ShardPlan:
    """The partition of one experiment's hosts across worker shards."""

    #: Shard count the caller asked for.
    requested_shards: int
    #: Effective shard count after the degenerate-topology fallback.
    num_shards: int
    #: Domain index of every client host (client address -> domain).
    domain_of_host: dict[int, int]
    #: Shard owning each domain (domain index -> shard).
    shard_of_domain: list[int]
    #: Shard owning each client host (client address -> shard).
    shard_of_host: dict[int, int]
    #: Shard owning each overlay node index (node index -> shard).
    shard_of_node: list[int]
    #: Conservative window width in seconds (``inf`` for a single shard).
    lookahead: float = float("inf")
    #: Client-host count per shard (diagnostics / balance assertions).
    hosts_per_shard: list[int] = field(default_factory=list)

    def owns(self, shard: int, node_index: int) -> bool:
        return self.shard_of_node[node_index] == shard

    def owned_nodes(self, shard: int) -> list[int]:
        return [i for i, s in enumerate(self.shard_of_node) if s == shard]


def stub_domains(topology: Topology) -> list[frozenset[int]]:
    """Stub domains of *topology*: connected components of the stub subgraph.

    Also the racks of ``CorrelatedCrashModel.failure_domains`` —
    deterministic order (components sorted by their sorted member lists).
    Empty for topologies without stub-role routers.
    """
    graph = topology.graph
    stubs = {node for node, data in graph.nodes(data=True)
             if data.get(ROLE_ATTR) == "stub"}
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in sorted(stubs):
        if start in seen:
            continue
        component = []
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in graph.neighbors(node):
                if neighbor in stubs and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(sorted(component))
    components.sort()
    return [frozenset(component) for component in components]


def _client_domains(topology: Topology) -> tuple[dict[int, int], int]:
    """Map every client host to a domain index.

    Clients follow their access router: a client adjacent to a stub router
    belongs to that router's stub domain.  Clients attached to non-stub
    routers (multi-site gateways, dumbbell access routers) fall back to one
    pseudo-domain per access router, so such topologies still partition along
    their natural site boundaries.
    """
    graph = topology.graph
    domains = stub_domains(topology)
    router_domain: dict[int, int] = {}
    for index, members in enumerate(domains):
        for router in members:
            router_domain[router] = index
    next_domain = len(domains)
    pseudo: dict[int, int] = {}  # access router -> pseudo-domain index
    domain_of_host: dict[int, int] = {}
    for client in topology.clients:
        domain = None
        for neighbor in graph.neighbors(client):
            if neighbor in router_domain:
                domain = router_domain[neighbor]
                break
        if domain is None:
            # No stub-role access router: group by the (sorted-first)
            # neighboring router so co-located clients stay together.
            access = min(graph.neighbors(client), default=None)
            if access is None:
                raise ShardPlanError(
                    f"client {client} has no access link in topology "
                    f"{topology.name!r}")
            if access not in pseudo:
                pseudo[access] = next_domain
                next_domain += 1
            domain = pseudo[access]
        domain_of_host[client] = domain
    return domain_of_host, next_domain


def _assign_domains(domain_clients: list[int], num_shards: int) -> list[int]:
    """Balanced deterministic domain -> shard assignment.

    Greedy bin packing: domains in descending used-client count (ties broken
    by domain index) onto the currently lightest shard (ties broken by shard
    id).  Deterministic given the deterministic domain order.
    """
    order = sorted(range(len(domain_clients)),
                   key=lambda d: (-domain_clients[d], d))
    load = [0] * num_shards
    shard_of_domain = [0] * len(domain_clients)
    for domain in order:
        shard = min(range(num_shards), key=lambda s: (load[s], s))
        shard_of_domain[domain] = shard
        load[shard] += domain_clients[domain]
    return shard_of_domain


def _narrow_link_owners(topology: Topology, router: Router,
                        shard_of_host: dict[int, int],
                        degraded: tuple) -> dict[int, int]:
    """The shard that owns each mid-route queue, keyed by the queueing link's
    far-end node: the one shard of every host reached through it.  Such links
    are the topology's narrow ones plus the *degraded* edges (those a fault
    model of the run will slow down, which queue while they are).

    Raises :class:`ShardPlanError` naming the link when those hosts sit on
    more than one shard.  Only a topology that has such links (a handful of
    hosts around a bottleneck) pays for the all-pairs route walk.
    """
    narrow, clients = topology.access_bandwidth(), set(topology.clients)
    edges = {(u, v) for u, v, data in topology.graph.edges(data=True)
             if data[BANDWIDTH_ATTR] <= narrow
             and u not in clients and v not in clients}
    edges.update(degraded)
    edges |= {(v, u) for u, v in edges}
    owners: dict[int, int] = {}
    for src in shard_of_host if edges else ():
        for dst, shard in shard_of_host.items():
            for u, v in router.plan(src, dst).edges[1:]:
                if (u, v) in edges and owners.setdefault(v, shard) != shard:
                    raise ShardPlanError(
                        f"narrow link ({u}, {v}) of topology "
                        f"{topology.name!r} queues packets for hosts on "
                        f"shards {owners[v]} and {shard}; its queue needs "
                        f"one owner (use fewer shards)")
    return owners


def _cross_shard_lookahead(topology: Topology, shard_of_host: dict[int, int],
                           num_shards: int, degraded: tuple) -> float:
    """Minimum underlay latency from a host to what another shard owns (its
    hosts and the far ends of the narrow links that lead to them).

    Delegates to :meth:`repro.network.router.Router.min_cross_latency` (one
    multi-source Dijkstra per shard over the latency-weighted graph) — a few
    milliseconds even for thousand-client graphs, paid once per run.
    """
    if num_shards <= 1:
        return float("inf")
    router = Router(topology)
    groups: list[list[int]] = [[] for _ in range(num_shards)]
    for owned in (shard_of_host,
                  _narrow_link_owners(topology, router, shard_of_host,
                                      degraded)):
        for node, shard in owned.items():
            groups[shard].append(node)
    best = router.min_cross_latency(groups)
    if best == float("inf"):
        # No cross-shard host pair is reachable (e.g. every used host landed
        # on one shard): no cross-shard traffic is possible, so the window
        # may be unbounded.
        return best
    if best <= 0.0:
        raise ShardPlanError(
            f"could not derive a positive cross-shard lookahead for "
            f"topology {topology.name!r} (got {best})")
    return best * LOOKAHEAD_SAFETY


def plan_shards(topology: Topology, num_nodes: int, shards: int,
                degraded: tuple[tuple[int, int], ...] = ()) -> ShardPlan:
    """Partition the first *num_nodes* client hosts of *topology* across
    *shards* worker processes.

    Every host is assigned to exactly one shard, stub domains are never
    split, clients follow their access router's domain, and neither the
    topology's narrow links nor the *degraded* ones (edges the run's fault
    models will slow down) lead to hosts of more than one shard.  Requesting
    more shards than the topology has domains degrades to one shard per
    domain; requesting one shard yields the trivial plan (infinite lookahead,
    no cross-shard traffic).
    """
    if shards < 1:
        raise ShardPlanError(f"shards must be >= 1, got {shards}")
    if num_nodes > len(topology.clients):
        raise ShardPlanError(
            f"num_nodes={num_nodes} exceeds the {len(topology.clients)} "
            f"client hosts of topology {topology.name!r}")
    domain_of_host, num_domains = _client_domains(topology)
    used_clients = topology.clients[:num_nodes]
    num_shards = max(1, min(shards, num_domains))
    domain_clients = [0] * num_domains
    for client in used_clients:
        domain_clients[domain_of_host[client]] += 1
    shard_of_domain = _assign_domains(domain_clients, num_shards)
    shard_of_host = {client: shard_of_domain[domain]
                     for client, domain in domain_of_host.items()}
    shard_of_node = [shard_of_host[client] for client in used_clients]
    hosts_per_shard = [0] * num_shards
    for client in used_clients:
        hosts_per_shard[shard_of_host[client]] += 1
    used_shard_of_host = {client: shard_of_host[client]
                          for client in used_clients}
    lookahead = _cross_shard_lookahead(topology, used_shard_of_host,
                                       num_shards, degraded)
    return ShardPlan(
        requested_shards=shards,
        num_shards=num_shards,
        domain_of_host=domain_of_host,
        shard_of_domain=shard_of_domain,
        shard_of_host=shard_of_host,
        shard_of_node=shard_of_node,
        lookahead=lookahead,
        hosts_per_shard=hosts_per_shard,
    )
