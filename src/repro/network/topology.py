"""Network topology generation.

The paper evaluates overlays over 20,000-node INET topologies emulated with
ModelNet, plus an 8-site Internet-like topology reconstructed from the NICE
SIGCOMM paper.  This module builds equivalent router-level topologies as
``networkx`` graphs annotated with per-link latency and bandwidth, and marks a
set of *client* nodes where overlay hosts attach.

Two generators are provided:

* :func:`transit_stub_topology` — a hierarchical transit-stub graph in the
  spirit of GT-ITM / INET: a small core of well-connected transit routers,
  each with several stub domains hanging off it.  Core links are fast and
  long; stub links are slower and short; client access links are slowest.
* :func:`multi_site_topology` — a handful of "sites" (campuses) connected by
  wide-area links with configurable inter-site latencies, used to reconstruct
  the NICE evaluation topology for Figures 8 and 9.

Topologies are deterministic functions of their seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import networkx as nx

#: Graph attribute names used throughout the emulator.
LATENCY_ATTR = "latency"      # one-way propagation delay, seconds
BANDWIDTH_ATTR = "bandwidth"  # bytes per second
ROLE_ATTR = "role"            # "transit" | "stub" | "client"


class TopologyError(ValueError):
    """Raised when a topology request cannot be satisfied."""


@dataclass
class LinkProfile:
    """Latency/bandwidth ranges for one class of link."""

    latency_range: tuple[float, float]
    bandwidth: float

    def sample_latency(self, rng: random.Random) -> float:
        low, high = self.latency_range
        return rng.uniform(low, high)


@dataclass
class TopologyProfile:
    """Tunable knobs of the transit-stub generator.

    Defaults approximate wide-area Internet characteristics: tens of
    milliseconds across the core, a few milliseconds inside a stub domain, and
    megabit-class client access links (the regime in which the paper's
    SplitStream experiments are bandwidth-limited).
    """

    transit_link: LinkProfile = field(
        default_factory=lambda: LinkProfile((0.010, 0.040), 1_250_000_000.0)
    )
    stub_link: LinkProfile = field(
        default_factory=lambda: LinkProfile((0.002, 0.010), 125_000_000.0)
    )
    client_link: LinkProfile = field(
        default_factory=lambda: LinkProfile((0.0005, 0.0030), 1_250_000.0)
    )

    def scaled_client_bandwidth(self, bandwidth: float) -> "TopologyProfile":
        """A copy of this profile with a different client access bandwidth."""
        return TopologyProfile(
            transit_link=self.transit_link,
            stub_link=self.stub_link,
            client_link=LinkProfile(self.client_link.latency_range, bandwidth),
        )


@dataclass
class Topology:
    """A generated topology: the router graph plus the list of client nodes."""

    graph: nx.Graph
    clients: list[int]
    name: str = "topology"
    #: Optional mapping of client node -> site index (used by multi-site topologies).
    client_sites: dict[int, int] = field(default_factory=dict)

    @property
    def num_routers(self) -> int:
        return sum(1 for _, data in self.graph.nodes(data=True)
                   if data.get(ROLE_ATTR) != "client")

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def access_bandwidth(self) -> float:
        """Bandwidth of the fastest client access link (``inf`` without
        clients): a link elsewhere on a route that is no faster is one a host
        can fill, so the emulator queues there (*narrow* links)."""
        clients = set(self.clients)
        return max((data[BANDWIDTH_ATTR]
                    for u, v, data in self.graph.edges(data=True)
                    if u in clients or v in clients), default=float("inf"))

    def validate(self) -> None:
        """Sanity-check link annotations and connectivity."""
        if not nx.is_connected(self.graph):
            raise TopologyError(f"topology {self.name!r} is not connected")
        for u, v, data in self.graph.edges(data=True):
            if LATENCY_ATTR not in data or data[LATENCY_ATTR] <= 0:
                raise TopologyError(f"edge {u}-{v} missing positive latency")
            if BANDWIDTH_ATTR not in data or data[BANDWIDTH_ATTR] <= 0:
                raise TopologyError(f"edge {u}-{v} missing positive bandwidth")
        missing = [c for c in self.clients if c not in self.graph]
        if missing:
            raise TopologyError(f"clients {missing} not present in graph")


def stub_domains(topology: Topology) -> list[frozenset[int]]:
    """Stub domains of *topology*: connected components of the stub subgraph.

    The racks of ``CorrelatedCrashModel.failure_domains``, in deterministic
    order (components sorted by their sorted member lists).  Empty for
    topologies without stub-role routers.
    """
    graph = topology.graph
    stubs = [node for node, data in graph.nodes(data=True)
             if data.get(ROLE_ATTR) == "stub"]
    components = sorted(sorted(component) for component
                        in nx.connected_components(graph.subgraph(stubs)))
    return [frozenset(component) for component in components]


def _add_link(graph: nx.Graph, u: int, v: int, profile: LinkProfile,
              rng: random.Random) -> None:
    graph.add_edge(u, v, **{
        LATENCY_ATTR: profile.sample_latency(rng),
        BANDWIDTH_ATTR: profile.bandwidth,
    })


def transit_stub_topology(
    num_clients: int,
    *,
    transit_routers: int = 10,
    stubs_per_transit: int = 4,
    routers_per_stub: int = 4,
    extra_transit_edges: int = 6,
    profile: Optional[TopologyProfile] = None,
    seed: int = 0,
    name: str = "transit-stub",
) -> Topology:
    """Generate a transit-stub topology with *num_clients* client hosts.

    The transit core is a ring plus random chords (so there is path diversity
    but the graph stays sparse).  Each transit router anchors
    ``stubs_per_transit`` stub domains; each stub domain is a small clique of
    ``routers_per_stub`` routers.  Clients attach to stub routers round-robin.
    """
    if num_clients <= 0:
        raise TopologyError("num_clients must be positive")
    if transit_routers < 3:
        raise TopologyError("need at least 3 transit routers")
    profile = profile or TopologyProfile()
    rng = random.Random(seed)
    graph = nx.Graph()
    counter = itertools.count()

    transit = [next(counter) for _ in range(transit_routers)]
    for node in transit:
        graph.add_node(node, **{ROLE_ATTR: "transit"})
    # Transit ring.
    for i, node in enumerate(transit):
        _add_link(graph, node, transit[(i + 1) % len(transit)],
                  profile.transit_link, rng)
    # Random chords across the core.
    for _ in range(extra_transit_edges):
        u, v = rng.sample(transit, 2)
        if not graph.has_edge(u, v):
            _add_link(graph, u, v, profile.transit_link, rng)

    stub_routers: list[int] = []
    for t in transit:
        for _ in range(stubs_per_transit):
            members = [next(counter) for _ in range(routers_per_stub)]
            for node in members:
                graph.add_node(node, **{ROLE_ATTR: "stub"})
            # Stub domain internal mesh (small clique keeps intra-stub paths short).
            for u, v in itertools.combinations(members, 2):
                _add_link(graph, u, v, profile.stub_link, rng)
            # Uplink from one stub router to its transit router.
            _add_link(graph, members[0], t, profile.transit_link, rng)
            stub_routers.extend(members)

    clients: list[int] = []
    for i in range(num_clients):
        attach = stub_routers[i % len(stub_routers)]
        client = next(counter)
        graph.add_node(client, **{ROLE_ATTR: "client"})
        _add_link(graph, client, attach, profile.client_link, rng)
        clients.append(client)

    topology = Topology(graph=graph, clients=clients, name=name)
    topology.validate()
    return topology


def multi_site_topology(
    members_per_site: Sequence[int],
    *,
    inter_site_latency_ms: Optional[Sequence[Sequence[float]]] = None,
    intra_site_latency_ms: float = 1.0,
    site_bandwidth: float = 12_500_000.0,
    access_bandwidth: float = 1_250_000.0,
    seed: int = 0,
    name: str = "multi-site",
) -> Topology:
    """Generate a multi-site (campus-style) topology.

    Each site has a gateway router and ``members_per_site[i]`` client hosts on
    a local LAN.  Sites are fully meshed with wide-area links whose latencies
    come from *inter_site_latency_ms* (a symmetric matrix in milliseconds); if
    omitted, latencies are drawn uniformly from 5–40 ms, the range reported in
    the NICE evaluation.
    """
    num_sites = len(members_per_site)
    if num_sites < 2:
        raise TopologyError("need at least two sites")
    rng = random.Random(seed)
    if inter_site_latency_ms is None:
        matrix = [[0.0] * num_sites for _ in range(num_sites)]
        for i in range(num_sites):
            for j in range(i + 1, num_sites):
                matrix[i][j] = matrix[j][i] = rng.uniform(5.0, 40.0)
        inter_site_latency_ms = matrix
    else:
        if len(inter_site_latency_ms) != num_sites:
            raise TopologyError("latency matrix does not match number of sites")

    graph = nx.Graph()
    counter = itertools.count()
    gateways = []
    for site in range(num_sites):
        gateway = next(counter)
        graph.add_node(gateway, **{ROLE_ATTR: "transit"})
        gateways.append(gateway)
    for i in range(num_sites):
        for j in range(i + 1, num_sites):
            latency = inter_site_latency_ms[i][j] / 1000.0
            if latency <= 0:
                raise TopologyError(f"non-positive inter-site latency between {i} and {j}")
            graph.add_edge(gateways[i], gateways[j], **{
                LATENCY_ATTR: latency,
                BANDWIDTH_ATTR: site_bandwidth,
            })

    clients: list[int] = []
    client_sites: dict[int, int] = {}
    for site, count in enumerate(members_per_site):
        for _ in range(count):
            client = next(counter)
            graph.add_node(client, **{ROLE_ATTR: "client"})
            graph.add_edge(client, gateways[site], **{
                LATENCY_ATTR: intra_site_latency_ms / 1000.0,
                BANDWIDTH_ATTR: access_bandwidth,
            })
            clients.append(client)
            client_sites[client] = site

    topology = Topology(graph=graph, clients=clients, name=name,
                        client_sites=client_sites)
    topology.validate()
    return topology


def dumbbell_topology(
    clients_per_side: int = 2,
    *,
    bottleneck_bandwidth: float = 125_000.0,
    bottleneck_latency_ms: float = 20.0,
    access_bandwidth: float = 1_250_000.0,
    access_latency_ms: float = 1.0,
    name: str = "dumbbell",
) -> Topology:
    """A classic dumbbell: two access routers joined by one bottleneck link.

    Used by the transport tests to exercise congestion, queueing, and loss on
    a single well-understood bottleneck.
    """
    if clients_per_side <= 0:
        raise TopologyError("clients_per_side must be positive")
    graph = nx.Graph()
    left, right = 0, 1
    graph.add_node(left, **{ROLE_ATTR: "transit"})
    graph.add_node(right, **{ROLE_ATTR: "transit"})
    graph.add_edge(left, right, **{
        LATENCY_ATTR: bottleneck_latency_ms / 1000.0,
        BANDWIDTH_ATTR: bottleneck_bandwidth,
    })
    clients = []
    next_id = 2
    for side, router in ((0, left), (1, right)):
        for _ in range(clients_per_side):
            client = next_id
            next_id += 1
            graph.add_node(client, **{ROLE_ATTR: "client"})
            graph.add_edge(client, router, **{
                LATENCY_ATTR: access_latency_ms / 1000.0,
                BANDWIDTH_ATTR: access_bandwidth,
            })
            clients.append(client)
    topology = Topology(graph=graph, clients=clients, name=name)
    topology.validate()
    return topology
