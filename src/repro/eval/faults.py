"""The fault plane: one description of a fault under every executor.

A fault model describes its faults once, as data: its ``draw`` is a pure
function of ``(model, num_nodes, rng, horizon)`` returning :class:`Fault`
rows over the one vocabulary :data:`FAULT_VERBS`.  Every driver draws the
rows on the same RNG stream and binds them with one binder
(:func:`~repro.eval.scenario.draw_model`,
:func:`~repro.eval.scenario.bind_model`): the simulator executes them on an
:class:`~repro.eval.experiment.OverlayExperiment`; in a live deployment
each node process runs its own join and group rows and every partition and
degrade row on its socket's :class:`~repro.transport.udp.SocketFaults`, and
the supervisor, a :class:`~repro.live.cluster.LiveCluster`, runs the crash
rows (:mod:`repro.live.faults`).
A new fault model is one class with one ``draw``; no driver changes.

The models cover the paper's fault vocabulary plus the adversarial shapes
the scenario fuzzer (:mod:`repro.eval.fuzz`) explores:

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
  degradation of access links or named edges, optionally restored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

from ..network.topology import stub_domains
from .scenario import ScenarioError, ScenarioModel, resolve_indices


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
#: :class:`~repro.eval.experiment.OverlayExperiment`; a live node's
#: :class:`~repro.transport.udp.SocketFaults` and the
#: :class:`~repro.live.cluster.LiveCluster` have the ones a deployment can
#: carry out.  docs/SCENARIOS.md "Fault verbs" is a view of this table.
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


def fired_faults(rows, horizon: float) -> list[Fault]:
    """The fault rows among *rows* (not joins, not group rows) as either
    driver runs them by *horizon*: a row due after it never fires, and an
    undo due after it never comes."""
    return [row if row.until is None or row.until <= horizon
            else row._replace(until=None)
            for row in rows
            if row.verb in FAULT_VERBS and row.verb != "join_node"
            and row.at <= horizon]


def fault_horizon(faults) -> float:
    """Offset of the last fault transition among *faults* (0.0 for none);
    a kill with no recovery ends at its kill time."""
    return max((row.at if row.until is None else row.until for row in faults),
               default=0.0)


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

    Left to the run, a bad group member or a link absent from the topology
    surfaces when the event fires, as an AddressError/RoutingError deep
    inside the emulator; fuzzed and hand-written specs alike want the whole
    list of offenders up front.  Links name edges of the emulated underlay,
    so a draw without one (*experiment* is ``None``) cannot carry them:
    *without* says what the model is left with.
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

    def weakened(self):
        if self.churn_fraction <= 0.1:
            return []
        return [replace(self,
                        churn_fraction=round(self.churn_fraction / 2, 3))]

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

    def weakened(self):
        variants = []
        if self.stay is not None:
            variants.append(replace(self, stay=None))
        if self.burst_rate > 2.0:
            variants.append(replace(self,
                                    burst_rate=round(self.burst_rate / 2, 3)))
        return variants

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
        graph = experiment.topology.graph
        domain_of: dict[int, int] = {}
        for domain, members in enumerate(stub_domains(experiment.topology)):
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

    def weakened(self):
        return [replace(self, racks=self.racks // 2)] if self.racks > 1 else []

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

    def weakened(self):
        variants = []
        if self.cycles > 1:
            variants.append(replace(self, cycles=self.cycles // 2))
        if len(self.links) > 1:
            variants.append(replace(self, links=self.links[:1]))
        return variants

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

    def weakened(self):
        variants = []
        if self.latency_factor > 2.0:
            variants.append(replace(self, latency_factor=round(
                1.0 + (self.latency_factor - 1.0) / 2, 3)))
        if self.bandwidth_factor < 1.0:
            variants.append(replace(self, bandwidth_factor=round(
                min(1.0, self.bandwidth_factor * 2), 3)))
        if len(self.links) > 1:
            variants.append(replace(self, links=self.links[:1]))
        return variants

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
        # Degrading a node rewrites underlay edges: network-wide, not
        # node-owned.
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
