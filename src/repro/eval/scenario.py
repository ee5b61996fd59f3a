"""Declarative experiment scenarios.

The paper's evaluation does not just boot N nodes and measure: it joins them
under realistic schedules, kills them, lets the failure detector drive
``error`` transitions, and measures workloads *while* the overlay is
repairing itself.  This module is the ns-style scenario script for the
reproduction: a :class:`ScenarioSpec` is a declarative description of one
such run — which agents, how many nodes, and a set of typed event models —
that compiles onto the simulator timeline and executes deterministically from
a seed.

The event models cover the paper's fault vocabulary plus the adversarial
shapes the scenario fuzzer (:mod:`repro.eval.fuzz`) explores:

* :class:`ChurnModel` — staggered or Poisson joins, plus optional
  leave/rejoin cycling of a fraction of the membership (fail-stop leaves);
* :class:`FlashCrowdModel` — a calm core boot followed by a Poisson burst
  of joins (flash-crowd churn), with optional mass departure;
* :class:`CrashModel` — a correlated fail-stop kill of chosen or sampled
  victims, with optional recovery;
* :class:`CorrelatedCrashModel` — rack-failure-shaped kills: whole
  topology attachment groups fail together;
* :class:`PartitionModel` — a network partition, either host-level groups
  (testbed-style per-host filtering) or physical link cuts, healed later;
* :class:`FlappingPartitionModel` — timed heal-and-recut cycles, optionally
  with one-directional (asymmetric) link cuts;
* :class:`DegradeModel` — slow nodes and bottleneck links: bandwidth/latency
  degradation of access links or named edges, optionally restored;
* :class:`GroupModel` — multicast group choreography (create + member joins)
  for tree-building protocols;
* :class:`WorkloadModel` — measurement traffic: multicast bursts, key route
  probes, a replicated key/value workload (``kind="kv"``: Zipf-skewed
  put/get mix against :class:`~repro.apps.kv.KvStore` with quorum
  accounting), or topic pub/sub (``kind="pubsub"``: subscribe fanout plus
  publishes against :class:`~repro.apps.pubsub.PubSub`), all with
  delivery/latency accounting.  It lives in :mod:`repro.eval.workload` —
  the workload plane the simulator, the shard workers and the live cluster
  all drive — and is re-exported here.

Event times are **offsets from the moment the model is applied**;
:meth:`ScenarioSpec.run` applies every model at time zero, so offsets and
absolute times coincide for whole-scenario runs.  All randomness comes from
an RNG forked from the experiment seed, so a spec is a pure function of
``(spec, seed)`` — the fixed-seed determinism tests pin this.

:class:`~repro.eval.runner.ScenarioRunner` executes one spec across several
seeds and aggregates the resulting metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import (Any, Callable, NamedTuple, Optional, Sequence, Type,
                    Union)

from ..runtime.agent import Agent
from ..runtime.failure import FailureDetectorConfig
from ..network.topology import Topology


class ScenarioError(ValueError):
    """Raised for malformed scenario specifications."""


# --------------------------------------------------------------------- events
@dataclass(frozen=True)
class ScenarioEvent:
    """One compiled timeline entry: when, what, and the thunk that does it."""

    time: float          # offset in seconds from the moment the model is applied
    kind: str            # "join" | "crash" | "recover" | "partition" | ...
    detail: str
    apply: Callable[[], None]
    #: Index of the single node the event acts on; ``None`` for a
    #: network-wide event.  Sharded runs execute a node event only on the
    #: shard that owns the node and a network-wide one on every shard.
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ScenarioError(
                f"{self.kind} event scheduled {self.time} s in the past")


class CompiledModel:
    """A model bound to one experiment: its events, what it observed, and the
    one formula that scores it.

    ``payload`` returns this process's raw, picklable observations and
    ``score`` is a pure function from the payloads of every process that ran
    the scenario (one in-process, K when sharded) to the metrics dict.  A
    model whose metrics are fixed at compile time passes them as a constant
    dict instead of a callable and takes the default scorer: compilation
    happens once, before any fork, so every process must report that same
    dict.
    """

    def __init__(self, label: str, events: Sequence[ScenarioEvent],
                 payload: Union[dict, Callable[[], Any], None] = None,
                 score: Optional[Callable[[list], dict[str, float]]] = None,
                 restore: Optional[Callable[[], None]] = None) -> None:
        self.label = label
        self.events = list(events)
        self._payload = payload
        self._score = score
        self._restore = restore

    def shard_payload(self) -> Any:
        """This process's observations, as shipped to the scorer."""
        payload = self._payload
        return payload() if callable(payload) else dict(payload or {})

    def score(self, payloads: list) -> dict[str, float]:
        """Metrics from the pooled payloads of every process."""
        if self._score is not None:
            return self._score(payloads)
        if any(payload != payloads[0] for payload in payloads[1:]):
            raise ScenarioError(
                f"model {self.label!r} produced diverging per-shard metrics "
                f"and defines no scorer to pool them")
        return payloads[0]

    def metrics(self) -> dict[str, float]:
        """Model-specific metrics of this process alone, after the run."""
        return self.score([self.shard_payload()])

    def restore(self) -> None:
        """Undo any handler instrumentation the model installed."""
        if self._restore is not None:
            self._restore()


# --------------------------------------------------------------------- models
@dataclass(frozen=True)
class ScenarioModel:
    """Base class of the typed event models.

    ``label`` names the model's metrics in :class:`ScenarioResult`
    (``<label>.<metric>``); each subclass has a sensible default.

    A fault model describes its faults once, as data: :meth:`draw` returns
    :class:`Fault` rows and whoever executes them — :meth:`instantiate` on an
    :class:`~repro.eval.experiment.OverlayExperiment`, or the live
    supervisor through :mod:`repro.live.faults` — looks the verbs up on its
    own executor.  Models that observe the run (:class:`GroupModel`,
    :class:`WorkloadModel`) override :meth:`instantiate` instead.
    """

    label: str = ""

    def default_label(self) -> str:
        return type(self).__name__.removesuffix("Model").lower()

    def draw(self, num_nodes: int, rng, horizon: float,
             experiment: "OverlayExperiment" = None,  # noqa: F821
             ) -> "tuple[list[Fault], dict[str, float]]":
        """This model's faults and its compile-time metrics — a pure
        function of ``(model, num_nodes, rng, horizon)``.  *experiment* is
        consulted only by what names the underlay (link validation, racks);
        a model that needs it and gets ``None`` raises
        :class:`ScenarioError` saying so."""
        raise ScenarioError(
            f"{type(self).__name__} defines no draw: it cannot be described "
            f"as fault rows")

    def instantiate(self, experiment: "OverlayExperiment",  # noqa: F821
                    rng, horizon: float) -> CompiledModel:
        """The drawn rows as timeline events on *experiment*, each fault's
        undo right behind its begin."""
        faults, metrics = self.draw(len(experiment.nodes), rng, horizon,
                                    experiment)
        events: list[ScenarioEvent] = []
        for fault in faults:
            kind, undo, undo_kind, undo_arity = FAULT_VERBS[fault.verb]
            events.append(ScenarioEvent(
                fault.at, kind, fault.detail,
                partial(getattr(experiment, fault.verb), *fault.args),
                node=fault.node))
            if fault.until is not None:
                events.append(ScenarioEvent(
                    fault.until, undo_kind, fault.undo_detail,
                    partial(getattr(experiment, undo),
                            *fault.args[:undo_arity]),
                    node=fault.node))
        return CompiledModel(self.label or self.default_label(), events,
                             metrics)


def resolve_index(count: int, index: int, what: str) -> int:
    if not -count <= index < count:
        raise ScenarioError(
            f"{what} index {index} out of range for {count} nodes")
    return index % count


def resolve_indices(count: int, indices: Sequence[int], what: str) -> list[int]:
    return [resolve_index(count, index, what) for index in indices]


# ---------------------------------------------------------------- fault rows
class Fault(NamedTuple):
    """One drawn fault: ``getattr(executor, verb)(*args)`` at offset ``at``
    and, when ``until`` is set, the verb's undo (:data:`FAULT_VERBS`) then.

    ``node`` is the index of the single node the fault acts on, ``None`` for
    a network-wide one (see :attr:`ScenarioEvent.node`).
    """

    at: float
    verb: str
    args: tuple
    detail: str
    until: Optional[float] = None
    undo_detail: str = ""
    node: Optional[int] = None


#: The fault vocabulary: ``verb -> (event kind, undo verb, undo event kind,
#: leading args the undo takes)``.  Every verb and undo verb is a method of
#: :class:`~repro.eval.experiment.OverlayExperiment`; the live executor maps
#: the verbs it can carry out onto its own directives
#: (:data:`repro.live.faults.LIVE_VERBS`).  docs/SCENARIOS.md "Fault verbs"
#: is a view of this table.
FAULT_VERBS: dict[str, tuple] = {
    "join_node": ("join", None, None, 0),
    "crash_node": ("crash", "recover_node", "recover", 1),
    "partition": ("partition", "heal_partition", "heal", 0),
    "disable_link": ("link-cut", "enable_link", "link-heal", 2),
    "disable_link_direction": ("link-cut", "enable_link_direction",
                               "link-heal", 2),
    "degrade_node": ("degrade", "restore_node", "restore", 1),
    "degrade_link": ("degrade", "restore_link", "restore", 2),
}


def _sample_victims(num_nodes: int, exempt: Sequence[int], fraction: float,
                    rng) -> list[int]:
    """A sorted sample of *fraction* of the non-exempt membership."""
    spared = set(resolve_indices(num_nodes, exempt, "exempt"))
    candidates = [i for i in range(num_nodes) if i not in spared]
    count = min(len(candidates), round(fraction * len(candidates)))
    return sorted(rng.sample(candidates, count))


def _crashes(victims: Sequence[int], at: float,
             recover_after: Optional[float], why: str,
             back: str) -> list[Fault]:
    """Fail-stop every victim at *at*; with *recover_after* set each comes
    back that many seconds later (factory-reset, re-joined via the
    bootstrap)."""
    until = None if recover_after is None else at + recover_after
    return [Fault(at, "crash_node", (index,), f"node {index} {why}",
                  until, f"node {index} {back}", node=index)
            for index in victims]


def _join(index: int, at: float, suffix: str = "") -> Fault:
    return Fault(at, "join_node", (index,), f"node {index} joins{suffix}",
                 node=index)


def _check_targets(model: str, num_nodes: int, groups, links, experiment,
                   without: str) -> tuple:
    """Reject unknown hosts/edges when the model is drawn, not mid-run, and
    return *groups* with every member as a plain node index.

    A bad group member or a link absent from the topology used to surface
    only when the partition event fired (as an AddressError/RoutingError
    deep inside the emulator, long after ``build()`` returned); fuzzed and
    hand-written specs alike want the whole list of offenders up front.
    Links name edges of the emulated underlay, so a draw without one
    (*experiment* is ``None``) cannot carry them: *without* says what the
    model is left with.
    """
    bad_members = sorted({index for group in groups for index in group
                          if not -num_nodes <= index < num_nodes})
    if bad_members:
        raise ScenarioError(
            f"{model} group members out of range for {num_nodes} nodes: "
            f"{bad_members}")
    if links and experiment is None:
        raise ScenarioError(
            f"{model} links need the emulated underlay; without one "
            f"{without}")
    bad_links = [(u, v) for u, v in links
                 if not experiment.topology.graph.has_edge(u, v)]
    if bad_links:
        raise ScenarioError(
            f"{model} links not in topology "
            f"{experiment.topology.name!r}: {bad_links}")
    return tuple(tuple(index % num_nodes for index in group)
                 for group in groups)


def _cuts(groups, links, at: float, until: Optional[float],
          directed: bool = False, prefix: str = "",
          noun: str = "host groups") -> list[Fault]:
    """One host-group partition (if any *groups*) plus one cut per link, all
    installed at *at* and healed at *until* (``None`` = never).  *directed*
    blackholes only the ``u -> v`` direction of each link."""
    faults = []
    if groups:
        faults.append(Fault(
            at, "partition", (groups,),
            f"{prefix}partition into {len(groups)} {noun}",
            until, f"{prefix}partition heals"))
    verb = "disable_link_direction" if directed else "disable_link"
    for u, v in links:
        edge = f"direction ({u} -> {v})" if directed else f"link ({u}, {v})"
        faults.append(Fault(at, verb, (u, v), f"{prefix}{edge} cut",
                            until, f"{prefix}{edge} heals"))
    return faults


@dataclass(frozen=True)
class ChurnModel(ScenarioModel):
    """Join schedule plus optional leave/rejoin churn.

    Joins: every node calls ``macedon_init`` against the experiment
    bootstrap — all at once (``join="immediate"``), spaced ``join_spacing``
    seconds apart (``"staggered"``), or with exponential inter-arrival gaps
    of mean ``1/join_rate`` (``"poisson"``).  Node 0 (the bootstrap) always
    joins first, at ``start``.

    Churn: ``churn_fraction`` of the non-exempt membership is sampled; each
    victim fail-stops at a uniform time in ``[churn_start, churn_end]`` and,
    if ``rejoin`` is set, recovers ``downtime`` seconds later with a factory
    reset and a fresh ``macedon_init`` — the recovery path the paper drives
    on ModelNet.
    """

    join: str = "staggered"          # "immediate" | "staggered" | "poisson"
    join_spacing: float = 0.25
    join_rate: float = 4.0           # joins per second for "poisson"
    start: float = 0.0
    churn_fraction: float = 0.0
    churn_start: float = 0.0
    churn_end: Optional[float] = None
    downtime: float = 10.0
    rejoin: bool = True
    exempt: tuple[int, ...] = (0,)   # node indices never churned (bootstrap)

    def draw(self, num_nodes, rng, horizon, experiment=None):
        if self.join not in ("immediate", "staggered", "poisson"):
            raise ScenarioError(f"unknown join mode {self.join!r}")
        faults: list[Fault] = []
        when = self.start
        join_at: list[float] = []
        for index in range(num_nodes):
            if index > 0:
                if self.join == "staggered":
                    when = self.start + index * self.join_spacing
                elif self.join == "poisson":
                    when += rng.expovariate(self.join_rate)
            join_at.append(when)
            faults.append(_join(index, when))

        victims = []
        if self.churn_fraction > 0:
            victims = _sample_victims(num_nodes, self.exempt,
                                      self.churn_fraction, rng)
            end = self.churn_end if self.churn_end is not None else horizon
            window_end = max(self.churn_start,
                             end - (self.downtime if self.rejoin else 0.0))
            for index in victims:
                # A victim cannot churn out before it has joined: a crash
                # scheduled earlier would be silently undone by the join
                # (join_node recovers crashed nodes), counting a cycle that
                # delivered zero downtime.
                window_start = max(self.churn_start, join_at[index])
                at = rng.uniform(window_start, max(window_start, window_end))
                faults += _crashes((index,), at,
                                   self.downtime if self.rejoin else None,
                                   "churns out", "rejoins")
        return faults, {"joins": float(num_nodes),
                        "churn_cycles": float(len(victims))}


@dataclass(frozen=True)
class CrashModel(ScenarioModel):
    """A correlated fail-stop kill at one instant, with optional recovery.

    Victims are either named node indices or a sampled ``fraction`` of the
    non-exempt membership.  With ``recover_after`` set, every victim comes
    back that many seconds later (factory-reset, re-joined via the
    bootstrap); otherwise the kill is permanent for the rest of the run.
    """

    at: float = 0.0
    victims: tuple[int, ...] = ()
    fraction: float = 0.0
    recover_after: Optional[float] = None
    exempt: tuple[int, ...] = (0,)

    def draw(self, num_nodes, rng, horizon, experiment=None):
        if self.victims and self.fraction:
            raise ScenarioError("give CrashModel victims or fraction, not both")
        if self.victims:
            chosen = resolve_indices(num_nodes, self.victims, "victim")
        else:
            chosen = _sample_victims(num_nodes, self.exempt, self.fraction,
                                     rng)
        return (_crashes(chosen, self.at, self.recover_after, "fail-stops",
                         "recovers"),
                {"victims": float(len(chosen))})


@dataclass(frozen=True)
class PartitionModel(ScenarioModel):
    """Cut the network at ``at``; optionally heal ``heal_after`` seconds later.

    Two cut mechanisms, matching the emulator's fault hooks:

    * ``groups`` — host-level partition: node-index groups whose members can
      only reach hosts in their own group; unlisted nodes form their own
      implicit group, so a single listed group is isolated from everyone
      else (``NetworkEmulator.partition_hosts``);
    * ``links`` — physical cuts of specific underlay edges
      (``NetworkEmulator.disable_link`` with targeted route invalidation).
    """

    at: float = 0.0
    heal_after: Optional[float] = None
    groups: tuple[tuple[int, ...], ...] = ()
    links: tuple[tuple[int, int], ...] = ()

    def draw(self, num_nodes, rng, horizon, experiment=None):
        if not self.groups and not self.links:
            raise ScenarioError("PartitionModel needs groups or links to cut")
        groups = _check_targets("PartitionModel", num_nodes, self.groups,
                                self.links, experiment,
                                "a partition cuts host groups only")
        until = None if self.heal_after is None else self.at + self.heal_after
        return _cuts(groups, self.links, self.at, until), {}


@dataclass(frozen=True)
class FlashCrowdModel(ScenarioModel):
    """Flash-crowd churn: a calm core boot, then the crowd slams in.

    Nodes ``0..core-1`` join staggered ``core_spacing`` seconds apart from
    time zero (node 0 is the bootstrap).  The remaining nodes — the crowd —
    arrive in a Poisson burst starting at ``at`` with exponential
    inter-arrival gaps of mean ``1/burst_rate`` joins per second.  With
    ``stay`` set, every crowd node fail-stops ``stay`` seconds after its own
    join and does not return: the flash crowd leaves as abruptly as it came.
    """

    core: int = 1
    core_spacing: float = 0.5
    at: float = 30.0
    burst_rate: float = 20.0         # crowd joins per second
    stay: Optional[float] = None

    def draw(self, num_nodes, rng, horizon, experiment=None):
        if not 1 <= self.core <= num_nodes:
            raise ScenarioError(
                f"FlashCrowdModel core {self.core} out of range for "
                f"{num_nodes} nodes")
        if self.burst_rate <= 0:
            raise ScenarioError("FlashCrowdModel burst_rate must be positive")
        if self.stay is not None and self.stay <= 0:
            raise ScenarioError("FlashCrowdModel stay must be positive")
        if self.stay is not None and experiment is None:
            raise ScenarioError(
                "flash-crowd mass departure is sim-only (a join wave can "
                "stand in for the crowd's arrival, but departures would "
                "need per-node leave scheduling)")
        faults = [_join(index, index * self.core_spacing, " (core)")
                  for index in range(self.core)]
        when = self.at
        for index in range(self.core, num_nodes):
            when += rng.expovariate(self.burst_rate)
            faults.append(_join(index, when, " (crowd)"))
            if self.stay is not None:
                faults += _crashes((index,), when + self.stay, None,
                                   "departs (crowd)", "")
        return faults, {"crowd": float(num_nodes - self.core),
                        "burst_seconds": when - self.at}


@dataclass(frozen=True)
class CorrelatedCrashModel(ScenarioModel):
    """Rack-failure-shaped kills: whole failure domains go down together.

    Nodes are grouped into failure domains by the *stub domain* their access
    router belongs to (the connected components of the topology's stub-role
    routers — clients behind one stub clique share power/uplink, the classic
    rack); ``racks`` of those domains are sampled and every non-exempt
    member fail-stops at ``at``.  With ``recover_after`` set, the victims
    all come back that many seconds later — a rack power-cycle rather than
    a permanent loss.  On topologies without stub roles each attachment
    router is its own domain.
    """

    at: float = 10.0
    racks: int = 1
    recover_after: Optional[float] = None
    exempt: tuple[int, ...] = (0,)   # the bootstrap survives by default

    @staticmethod
    def failure_domains(experiment) -> dict[int, int]:
        """Map each topology attachment router to a failure-domain id."""
        import networkx as nx

        from ..network.topology import ROLE_ATTR

        graph = experiment.topology.graph
        stub_nodes = [node for node, data in graph.nodes(data=True)
                      if data.get(ROLE_ATTR) == "stub"]
        domain_of: dict[int, int] = {}
        components = sorted(
            (sorted(component) for component in
             nx.connected_components(graph.subgraph(stub_nodes))),
            key=lambda members: members[0])
        for domain, members in enumerate(components):
            for member in members:
                domain_of[member] = domain
        # Client attachment points inherit the domain of the access router
        # they hang off (a client's topology node is the client vertex
        # itself, not the router).
        for client in experiment.topology.clients:
            for neighbor in graph.neighbors(client):
                if neighbor in domain_of:
                    domain_of[client] = domain_of[neighbor]
                    break
        return domain_of

    def draw(self, num_nodes, rng, horizon, experiment=None):
        if experiment is None:
            raise ScenarioError(
                "rack-correlated crashes need the emulated topology's "
                "attachment groups; nodes without an underlay have none")
        exempt = set(resolve_indices(num_nodes, self.exempt, "exempt"))
        domain_of = self.failure_domains(experiment)
        by_rack: dict[int, list[int]] = {}
        for index, node in enumerate(experiment.nodes):
            if index not in exempt:
                attachment = node.host.topology_node
                # Routers outside any stub domain (custom topologies) form
                # singleton domains, keyed disjointly from the real ones.
                rack = domain_of.get(attachment, -1 - attachment)
                by_rack.setdefault(rack, []).append(index)
        if not 1 <= self.racks <= len(by_rack):
            raise ScenarioError(
                f"CorrelatedCrashModel racks={self.racks} out of range: "
                f"topology has {len(by_rack)} failure domains with "
                f"non-exempt members")
        chosen = rng.sample(sorted(by_rack), self.racks)
        victims = sorted(index for rack in chosen for index in by_rack[rack])
        return (_crashes(victims, self.at, self.recover_after,
                         "fails with its rack", "recovers with its rack"),
                {"racks": float(self.racks),
                 "victims": float(len(victims))})


@dataclass(frozen=True)
class FlappingPartitionModel(ScenarioModel):
    """A partition that heals and recuts on a timer — the flapping-link shape
    that stresses failure detectors far harder than one clean cut.

    Each of ``cycles`` cycles starts at ``at + k * period``: the partition is
    installed, held for ``duty * period`` seconds, then healed for the rest
    of the period.  The cut is either host-level ``groups`` (as in
    :class:`PartitionModel`) or physical ``links``; with ``directed`` set,
    link cuts blackhole only the ``u -> v`` direction of each listed edge
    (asymmetric partition: one side keeps hearing the other).
    """

    at: float = 0.0
    period: float = 20.0
    duty: float = 0.5                # fraction of each period spent cut
    cycles: int = 3
    groups: tuple[tuple[int, ...], ...] = ()
    links: tuple[tuple[int, int], ...] = ()
    directed: bool = False

    def draw(self, num_nodes, rng, horizon, experiment=None):
        if not self.groups and not self.links:
            raise ScenarioError(
                "FlappingPartitionModel needs groups or links to cut")
        if self.directed and not self.links:
            raise ScenarioError(
                "FlappingPartitionModel directed cuts need links "
                "(host groups have no direction)")
        if self.period <= 0 or not 0 < self.duty < 1 or self.cycles < 1:
            raise ScenarioError(
                "FlappingPartitionModel needs period > 0, 0 < duty < 1 "
                "and cycles >= 1")
        groups = _check_targets("FlappingPartitionModel", num_nodes,
                                self.groups, self.links, experiment,
                                "a partition flaps host groups only")
        faults: list[Fault] = []
        for cycle in range(self.cycles):
            cut_at = self.at + cycle * self.period
            faults += _cuts(groups, self.links, cut_at,
                            cut_at + self.duty * self.period, self.directed,
                            f"flap {cycle}: ", "groups")
        return faults, {"cycles": float(self.cycles),
                        "cut_seconds": self.cycles * self.duty * self.period}


@dataclass(frozen=True)
class DegradeModel(ScenarioModel):
    """Slow nodes and bottleneck links: service-rate degradation at runtime.

    At ``at``, the access links of the chosen nodes (named ``hosts`` indices
    or a sampled ``host_fraction`` of the non-exempt membership) and the
    named underlay ``links`` have their bandwidth scaled by
    ``bandwidth_factor`` (down) and latency by ``latency_factor`` (up), via
    the emulator's degrade hooks — routing reweighs the affected edges with
    the same targeted invalidation a link cut uses.  With ``restore_after``
    set, everything returns to its original service rate that many seconds
    later.
    """

    at: float = 0.0
    restore_after: Optional[float] = None
    hosts: tuple[int, ...] = ()
    host_fraction: float = 0.0
    links: tuple[tuple[int, int], ...] = ()
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0
    exempt: tuple[int, ...] = (0,)

    def draw(self, num_nodes, rng, horizon, experiment=None):
        if self.hosts and self.host_fraction:
            raise ScenarioError(
                "give DegradeModel hosts or host_fraction, not both")
        if not self.hosts and not self.host_fraction and not self.links:
            raise ScenarioError(
                "DegradeModel needs hosts, host_fraction, or links")
        if not 0.0 < self.bandwidth_factor <= 1.0 or self.latency_factor < 1.0:
            raise ScenarioError(
                "DegradeModel needs bandwidth_factor in (0, 1] and "
                "latency_factor >= 1 (degradation only slows things down)")
        if self.bandwidth_factor == 1.0 and self.latency_factor == 1.0:
            raise ScenarioError("DegradeModel with both factors 1.0 is a no-op")
        _check_targets("DegradeModel", num_nodes, (), self.links, experiment,
                       "degradation reaches host access links only")
        if self.hosts:
            chosen = sorted(set(resolve_indices(num_nodes, self.hosts,
                                                "degraded host")))
        elif self.host_fraction:
            chosen = _sample_victims(num_nodes, self.exempt,
                                     self.host_fraction, rng)
        else:
            chosen = []
        until = (None if self.restore_after is None
                 else self.at + self.restore_after)
        factors = (self.bandwidth_factor, self.latency_factor)
        # Degrading a node rewrites underlay edges, which every process of a
        # sharded run holds its own replica of: network-wide, not node-owned.
        faults = [Fault(self.at, "degrade_node", (index, *factors),
                        f"node {index} access links degrade",
                        until, f"node {index} access links restore")
                  for index in chosen]
        faults += [Fault(self.at, "degrade_link", (u, v, *factors),
                         f"link ({u}, {v}) degrades",
                         until, f"link ({u}, {v}) restores")
                   for u, v in self.links]
        return faults, {"hosts": float(len(chosen)),
                        "links": float(len(self.links))}


@dataclass(frozen=True)
class GroupModel(ScenarioModel):
    """Multicast group choreography for tree-building protocols.

    Node ``source`` creates ``group`` at ``at``; the ``members`` (every
    other node by default) join it staggered ``spacing`` seconds apart.
    This is the setup a multicast :class:`WorkloadModel` needs on protocols
    like Scribe, expressed as a model so fuzzed and curated specs can drive
    tree protocols without hand-written choreography.  Joins are skipped for
    nodes that are crashed or uninitialised when their join fires.
    """

    group: int = 1
    source: int = 0
    at: float = 0.0
    spacing: float = 0.25
    members: tuple[int, ...] = ()    # empty = everyone except source

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        count = len(experiment.nodes)
        source = resolve_index(count, self.source, "group source")
        if self.members:
            members = [index for index in
                       resolve_indices(count, self.members, "group member")
                       if index != source]
        else:
            members = [index for index in range(count) if index != source]
        joined = 0

        def _create() -> None:
            node = experiment.nodes[source]
            if node.alive and node.initialized:
                node.macedon_create_group(self.group)

        def _join(index: int) -> None:
            nonlocal joined
            node = experiment.nodes[index]
            if node.alive and node.initialized:
                node.macedon_join(self.group)
                joined += 1

        events = [ScenarioEvent(
            self.at, "group",
            f"node {source} creates group {self.group}", _create, node=source)]
        for offset, index in enumerate(members):
            events.append(ScenarioEvent(
                self.at + (offset + 1) * self.spacing, "group",
                f"node {index} joins group {self.group}",
                lambda i=index: _join(i), node=index))
        label = self.label or self.default_label()
        # Each member's join fires in the process that owns it, so the
        # per-process counts pool by summing; ``members`` is compile-time.
        return CompiledModel(
            label, events, payload=lambda: joined,
            score=lambda counts: {"members": float(len(members)),
                                  "joined": float(sum(counts))})


# The workload plane imports the base classes above, so it loads here.
from .workload import (KvWorkloadState, WorkloadModel,  # noqa: E402,F401
                       WorkloadObservations)


# -------------------------------------------------------------------- samples
@dataclass(frozen=True)
class SampleSeries:
    """A named time series sampled every ``interval`` seconds during the run.

    ``fn`` receives the experiment and returns one float — e.g. the
    Figure-10 routing-table-correctness metric.  Samples are taken from
    ``start`` to the scenario end, inclusive of both endpoints.
    """

    name: str
    interval: float
    fn: Callable[["OverlayExperiment"], float]  # noqa: F821
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ScenarioError("sample interval must be positive")


# --------------------------------------------------------------------- result
@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    name: str
    seed: int
    duration: float
    metrics: dict[str, float]
    series: dict[str, list[tuple[float, float]]]
    events: list[tuple[float, str, str]]
    #: The live experiment, for ad-hoc inspection (not used in aggregation).
    experiment: Any = None
    #: Sharded-run diagnostics (``run_sharded`` only): effective shard count,
    #: lookahead window, barrier count, cross-shard packet total.  Kept out
    #: of ``metrics`` because these are partition-dependent by nature while
    #: metrics must be identical for every shard count.
    shard_info: Optional[dict] = None
    #: The ``repro.obs/1`` snapshot when the spec opted into observability
    #: (``ScenarioSpec.obs``); ``None`` otherwise.  Kept separate from
    #: ``metrics``, whose key set and values are pinned byte-identical for
    #: the obs-disabled path.
    obs: Optional[dict] = None


AgentClasses = Union[Sequence[Type[Agent]], Callable[[], Sequence[Type[Agent]]]]


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: agents, population, faults, and workload.

    ``agents`` may be a sequence of agent classes or a zero-argument callable
    returning one (so DSL compilation happens lazily, per spec use).
    ``topology`` may be a :class:`Topology` or a callable ``seed -> Topology``;
    by default a transit-stub topology with ``num_nodes`` clients is generated
    from the seed, so every seed sees a different (but reproducible) network.
    """

    name: str
    agents: AgentClasses
    num_nodes: int
    duration: float
    seed: int = 0
    topology: Union[Topology, Callable[[int], Topology], None] = None
    random_loss_rate: float = 0.0
    strict_locking: bool = True
    failure_config: Optional[FailureDetectorConfig] = None
    models: tuple[ScenarioModel, ...] = ()
    samples: tuple[SampleSeries, ...] = ()
    #: Post-construction tuning hook, e.g. tightening protocol timers per
    #: node.  Must be **idempotent**: it is re-applied after every node
    #: recovery, because fail-stop recovery rebuilds the agent stack and
    #: would otherwise revert the tuning on exactly the churned nodes.
    configure: Optional[Callable[["OverlayExperiment"], None]] = None  # noqa: F821
    #: Observability opt-in (:class:`repro.obs.ObsConfig`): metrics
    #: snapshot on ``result.obs``, optional trace export and causal
    #: tracing.  ``None`` — the default — runs the historical code paths
    #: untouched.
    obs: Optional[Any] = None

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """This spec, re-seeded (the multi-seed runner's replication knob)."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------- build
    def resolve_agents(self) -> list[Type[Agent]]:
        agents = self.agents() if callable(self.agents) else self.agents
        return list(agents)

    def build(self) -> "OverlayExperiment":  # noqa: F821
        """Construct the experiment and schedule every model onto it."""
        from .experiment import ExperimentConfig, OverlayExperiment

        if self.duration <= 0:
            raise ScenarioError("scenario duration must be positive")
        topology = self.topology(self.seed) if callable(self.topology) \
            else self.topology
        config = ExperimentConfig(
            num_nodes=self.num_nodes,
            seed=self.seed,
            topology=topology,
            random_loss_rate=self.random_loss_rate,
            strict_locking=self.strict_locking,
            convergence_time=self.duration,
            failure_config=self.failure_config,
            obs=self.obs,
        )
        experiment = OverlayExperiment(self.resolve_agents(), config)
        if self.configure is not None:
            experiment.configure_hook = self.configure
            self.configure(experiment)
        for model in self.models:
            experiment.apply_model(model, horizon=self.duration)
        return experiment

    # --------------------------------------------------------------------- run
    def run(self, *, shards: int = 1) -> ScenarioResult:
        """Execute the scenario and collect metrics, series, and event log.

        Runs in this process and hands back the live experiment on the
        result.  ``shards > 1`` delegates to :meth:`run_sharded`, the
        multi-process conservative-lockstep kernel (call that explicitly to
        push a one-shard run through the worker pipeline, e.g. for the
        byte-identity gate in the benchmarks).
        """
        if shards != 1:
            return self.run_sharded(shards)
        experiment = self.build()
        result = self._assemble(experiment, [self._run_process(experiment)])
        result.experiment = experiment
        return result

    def run_sharded(self, shards: int) -> ScenarioResult:
        """Execute the scenario on the multi-process sharded kernel.

        The experiment is built once here in the parent (models compiled,
        agents resolved — so dynamically generated protocol modules exist in
        every worker), then one worker per shard is forked and runs its own
        event heap inside conservative lockstep windows, exchanging
        cross-shard packets at barriers (:mod:`repro.runtime.sharded`).

        Every worker executes the same per-process body as :meth:`run` and
        ships its raw observations home, where they are pooled and scored by
        the same formulas.  A one-shard plan is a single window with no
        cross-shard traffic, so ``shards=1`` reproduces :meth:`run`
        byte-identically; with K workers the scorers pool in a canonical
        order, so repeated runs — and, for fault-free scenarios, different
        K — give identical metrics.  Sample series need a global view and
        are rejected for K > 1.  The returned result carries
        ``experiment=None`` (the parent's copy never ran).
        """
        from ..runtime.sharded import ShardCoordinator, plan_shards

        experiment = self.build()
        plan = plan_shards(experiment.topology, self.num_nodes, shards)
        if plan.num_shards > 1 and self.samples:
            raise ScenarioError(
                "sample series need a global experiment view and are not "
                "supported with shards > 1")
        shard_of_address = {node.address: plan.shard_of_node[index]
                            for index, node in enumerate(experiment.nodes)}
        coordinator = ShardCoordinator(plan, start=0.0,
                                       duration=self.duration,
                                       shard_of_address=shard_of_address)
        reports = coordinator.run(
            lambda shard_id, endpoint, barriers: self._run_process(
                experiment, shard_id, plan, endpoint, barriers))
        return self._assemble(experiment, reports, shard_info={
            "requested_shards": shards,
            "num_shards": plan.num_shards,
            "lookahead": plan.lookahead,
            "barriers": len(coordinator.barriers),
            "cross_shard_packets": sum(report["cross_shard_packets"]
                                       for report in reports),
        })

    def _run_process(self, experiment, shard_id: int = 0, plan=None,
                     endpoint=None, barriers=()) -> dict:
        """One process's share of a run: attach observability, schedule the
        sample series, advance the clock to ``duration``, unwind the models
        and report what this process observed, unscored.

        Without a *plan* the process is the whole run (:meth:`run`): it owns
        every node and advances its simulator directly.  With one it is
        worker *shard_id* of :meth:`run_sharded` and advances in lockstep
        windows, trading cross-shard packets over *endpoint* at *barriers*.
        """
        simulator = experiment.simulator
        emulator = experiment.emulator
        in_worker = plan is not None
        mode = "sharded" if in_worker and plan.num_shards > 1 else "sim"

        obs_registry = obs_causal = None
        if self.obs is not None:
            from ..obs import CausalLog, base_registry
            obs_registry = base_registry()
            tracer = experiment.tracer
            if tracer.sink is not None:
                if mode == "sharded":
                    # One writer per file: each forked worker spills its
                    # own shard-suffixed JSONL (run_trace.py merges them).
                    tracer.sink.path = f"{tracer.sink.path}.shard{shard_id}"
                tracer.sink.update_meta(
                    mode=mode, name=self.name, seed=self.seed,
                    **({"shard": shard_id} if in_worker else {}))
            if self.obs.causal:
                # Install order matters: the delivery wrapper must be in
                # place before enter_shard captures the callback identity
                # for the egress filter; the send tap must come after it
                # swaps in the sharded send.  Workers get disjoint id spaces.
                obs_causal = CausalLog(
                    tracer, simulator, registry=obs_registry,
                    origin=shard_id + 1 if in_worker else 0)
                emulator.install_delivery_wrapper(obs_causal.wrap_delivery)
        driver = None
        owned = experiment.nodes
        if in_worker:
            from ..runtime.sharded import ShardedDriver
            driver = ShardedDriver(simulator, shard_id=shard_id, plan=plan,
                                   endpoint=endpoint, registry=obs_registry)
            experiment.enter_shard(shard_id, plan, driver.capture)
            owned = [experiment.nodes[i] for i in plan.owned_nodes(shard_id)]
        if obs_causal is not None:
            emulator.install_send_tap(obs_causal.tag)

        series: dict[str, list[tuple[float, float]]] = {}
        for sample in self.samples:
            points = series.setdefault(sample.name, [])
            when = sample.start
            while when <= self.duration + 1e-9:
                simulator.schedule_at(
                    when,
                    lambda s=sample, p=points: p.append(
                        (simulator.now, float(s.fn(experiment)))),
                    label=f"sample:{sample.name}")
                when += sample.interval

        if in_worker:
            driver.run_windows(barriers, emulator.inject_delivery)
        else:
            experiment.run(self.duration)

        # Reverse apply order: each restore() re-installs what the model saw
        # when it was applied, so unwinding must pop the chain LIFO.
        for compiled in reversed(experiment.compiled_models):
            compiled.restore()

        # Model events sit on every shard's heap, so the pops this shard
        # skipped are subtracted: the sum over shards would otherwise grow
        # by (K-1) x model events and depend on the shard count.
        events_processed = (simulator.events_processed
                            - experiment.shard_skipped_events)
        exported = driver.packets_exported if in_worker else 0
        stats = emulator.stats
        obs_payload = None
        if obs_registry is not None:
            from ..obs import fill_sim
            fill_sim(obs_registry, experiment,
                     events_processed=events_processed, owned_nodes=owned,
                     causal=obs_causal, cross_shard_packets=exported)
            if experiment.tracer.sink is not None:
                experiment.tracer.sink.close()
            obs_payload = obs_registry.snapshot()
        return {
            "obs": obs_payload,
            "models": [compiled.shard_payload()
                       for compiled in experiment.compiled_models],
            "net": (stats.packets_sent, stats.packets_delivered,
                    stats.packets_dropped, stats.bytes_delivered),
            "events_processed": events_processed,
            "alive": sum(node.alive for node in owned),
            "crashes": sum(node.crash_count for node in owned),
            "recoveries": sum(node.recover_count for node in owned),
            "series": series,
            "cross_shard_packets": exported,
        }

    def _assemble(self, experiment, reports: list[dict],
                  shard_info: Optional[dict] = None) -> ScenarioResult:
        """One result from the reports of every process that ran the
        scenario: each model scored over the pooled payloads, totals summed,
        observability snapshots merged."""
        metrics: dict[str, float] = {}
        labels: dict[str, int] = {}
        for index, compiled in enumerate(experiment.compiled_models):
            label = compiled.label
            labels[label] = labels.get(label, 0) + 1
            if labels[label] > 1:
                label = f"{label}{labels[label]}"
            scored = compiled.score([report["models"][index]
                                     for report in reports])
            for key, value in scored.items():
                metrics[f"{label}.{key}"] = value

        metrics.update({
            "net.packets_sent": float(sum(r["net"][0] for r in reports)),
            "net.packets_delivered": float(sum(r["net"][1] for r in reports)),
            "net.packets_dropped": float(sum(r["net"][2] for r in reports)),
            "net.bytes_delivered": float(sum(r["net"][3] for r in reports)),
            "sim.events_processed": float(sum(r["events_processed"]
                                              for r in reports)),
            "nodes.alive": float(sum(r["alive"] for r in reports)),
            "nodes.crashes": float(sum(r["crashes"] for r in reports)),
            "nodes.recoveries": float(sum(r["recoveries"] for r in reports)),
        })

        events = [(event.time, event.kind, event.detail)
                  for compiled in experiment.compiled_models
                  for event in compiled.events]
        events.sort(key=lambda item: item[0])
        obs_snapshot = None
        if self.obs is not None:
            from ..obs import artifact, base_registry, write_obs_snapshot
            registry = base_registry()
            for report in reports:
                registry.merge(report["obs"])
            num_shards = shard_info["num_shards"] if shard_info else 1
            obs_snapshot = artifact(
                registry, mode="sharded" if num_shards > 1 else "sim",
                name=self.name, seed=self.seed, duration=self.duration,
                extra={"shards": num_shards} if shard_info else None)
            if self.obs.snapshot_path:
                write_obs_snapshot(self.obs.snapshot_path, obs_snapshot)
        # Sample series exist only where one process saw the whole run.
        return ScenarioResult(name=self.name, seed=self.seed,
                              duration=self.duration, metrics=metrics,
                              series=reports[0]["series"], events=events,
                              shard_info=shard_info, obs=obs_snapshot)
