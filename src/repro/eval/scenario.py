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

* the seven fault models — churn, flash crowds, crashes, rack failures,
  partitions, flapping partitions, degradation — which live in
  :mod:`repro.eval.faults`, the fault plane the simulator and the live
  supervisor both execute, and are re-exported here;
* :class:`GroupModel` — multicast group choreography (create + member joins)
  for tree-building protocols;
* :class:`WorkloadModel` — measurement traffic: multicast bursts, key route
  probes, a replicated key/value workload (``kind="kv"``: Zipf-skewed
  put/get mix against :class:`~repro.apps.kv.KvStore` with quorum
  accounting), or topic pub/sub (``kind="pubsub"``: subscribe fanout plus
  publishes against :class:`~repro.apps.pubsub.PubSub`), all with
  delivery/latency accounting.  It lives in :mod:`repro.eval.workload` —
  the workload plane the simulator and the live cluster both drive — and is
  re-exported here.

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
from typing import Any, Callable, Iterable, Optional, Sequence, Type, Union

from ..runtime.agent import Agent
from ..runtime.failure import FailureDetectorConfig
from ..network.topology import Topology
from .metrics import correct_successor_fraction, ring_rows


class ScenarioError(ValueError):
    """Raised for malformed scenario specifications."""


# --------------------------------------------------------------------- events
def check_event_time(kind: str, time: float) -> None:
    """An event before the moment its model is applied is malformed, in the
    same words under every executor."""
    if time < 0:
        raise ScenarioError(f"{kind} event scheduled {time} s in the past")


@dataclass(frozen=True)
class ScenarioEvent:
    """One compiled timeline entry: when, what, and the thunk that does it."""

    time: float          # offset in seconds from the moment the model is applied
    kind: str            # "join" | "crash" | "recover" | "partition" | ...
    detail: str
    apply: Callable[[], None]
    #: Index of the single node the event acts on; ``None`` for a
    #: network-wide event.
    node: Optional[int] = None

    def __post_init__(self) -> None:
        check_event_time(self.kind, self.time)


class CompiledModel:
    """A model bound to one experiment: its events, what it observed, and the
    one formula that scores it.

    ``payload`` returns this process's raw, picklable observations and
    ``score`` is a pure function from the payloads of every process that ran
    the scenario (one in the simulator, N in a live cluster) to the metrics
    dict.  A model whose metrics are fixed at compile time passes them as a
    constant dict instead of a callable and takes the default scorer: its
    own dict, which any process that reports the model must report too.
    ``faults`` are the rows of its draw that fire by the horizon.
    """

    def __init__(self, label: str, events: Sequence[ScenarioEvent],
                 payload: Union[dict, Callable[[], Any], None] = None,
                 score: Optional[Callable[[list], dict[str, float]]] = None,
                 restore: Optional[Callable[[], None]] = None, *,
                 model: Optional["ScenarioModel"] = None,
                 faults: Sequence = ()) -> None:
        self.label = label
        self.events = list(events)
        self._payload = payload
        self._score = score
        self._restore = restore
        self.model = model
        self.faults = list(faults)

    def shard_payload(self) -> Any:
        """This process's observations, as shipped to the scorer."""
        payload = self._payload
        return payload() if callable(payload) else dict(payload or {})

    def score(self, payloads: list) -> dict[str, float]:
        """Metrics from the pooled payloads of every process."""
        if self._score is not None:
            return self._score(payloads)
        own = self.shard_payload()
        if any(payload != own for payload in payloads):
            raise ScenarioError(
                f"model {self.label!r} produced diverging per-process metrics "
                f"and defines no scorer to pool them")
        return own

    def metrics(self) -> dict[str, float]:
        """Model-specific metrics of this process alone, after the run."""
        return self.score([self.shard_payload()])

    def restore(self) -> None:
        """Undo any handler instrumentation the model installed."""
        if self._restore is not None:
            self._restore()


def metric_labels(labels: Iterable[str]) -> list[str]:
    """The prefix each model's metrics go under (``<label>.<metric>``): its
    label, with its count appended from the second use on (``workload``,
    ``workload2``)."""
    seen: dict[str, int] = {}
    unique = []
    for label in labels:
        seen[label] = count = seen.get(label, 0) + 1
        unique.append(label if count == 1 else f"{label}{count}")
    return unique


def score_models(compiled_models: Sequence[CompiledModel],
                 reports: Sequence[dict]) -> dict[str, float]:
    """Every model's metrics as ``<label>.<metric>``, in apply order: the
    one scorer of a run, whichever driver ran it.

    *reports* are the run's per-process reports — one from the simulator,
    one per node process live — each mapping a model's label to that
    process's payload under ``"models"``.  A model no report carries (a
    fault model, whose draw fixes its metrics) scores on its own payload.
    """
    metrics: dict[str, float] = {}
    labels = metric_labels(compiled.label for compiled in compiled_models)
    for label, compiled in zip(labels, compiled_models):
        payloads = [report["models"][label] for report in reports
                    if label in report["models"]]
        for key, value in compiled.score(payloads).items():
            metrics[f"{label}.{key}"] = value
    return metrics


def score_recovery(compiled_models: Sequence[CompiledModel],
                   reports: Sequence[dict],
                   settle: float) -> dict[str, float]:
    """What a run scores beyond its models, whichever driver ran it: each
    workload's ``post_fault_probes`` (ops sent *settle* seconds or more
    after the last fault transition) and the share of them that completed,
    ``post_fault_success_ratio``; and ``ring.correct_successor_fraction``
    over the reports' ``"ring"`` rows (:func:`~.metrics.ring_rows`)."""
    metrics: dict[str, float] = {}
    faults = [row for compiled in compiled_models for row in compiled.faults]
    if faults:
        recovered_at = fault_horizon(faults) + settle
        labels = metric_labels(compiled.label for compiled in compiled_models)
        for label, compiled in zip(labels, compiled_models):
            if not isinstance(compiled.model, WorkloadModel):
                continue
            payloads = [report["models"][label] for report in reports
                        if label in report["models"]]
            late = {seqno for payload in payloads
                    for seqno, at in payload["sent"] if at >= recovered_at}
            # The sample size: a ratio over a handful of probes is a coin.
            metrics[f"{label}.post_fault_probes"] = float(len(late))
            if late:
                metrics[f"{label}.post_fault_success_ratio"] = len(
                    compiled.model.delivered(payloads) & late) / len(late)
    rows = [row for report in reports for row in report.get("ring", ())]
    if rows:
        metrics["ring.correct_successor_fraction"] = \
            correct_successor_fraction(rows)
    return metrics


# --------------------------------------------------------------------- models
@dataclass(frozen=True)
class ScenarioModel:
    """Base class of the typed event models.

    ``label`` names the model's metrics in :class:`ScenarioResult`
    (``<label>.<metric>``); each subclass has a sensible default.

    Every model draws its schedule once, as data: a fault model
    (:mod:`repro.eval.faults`) and :class:`GroupModel` with :meth:`draw`,
    :class:`WorkloadModel` with its own ``draw``.  A model that observes the
    run (:class:`GroupModel`, :class:`WorkloadModel`) also overrides
    :meth:`instantiate`.  A live deployment runs the same draws
    (:meth:`repro.live.cluster.LiveClusterConfig.draw`).
    """

    label: str = ""

    def default_label(self) -> str:
        return type(self).__name__.removesuffix("Model").lower()

    def weakened(self) -> "list[ScenarioModel]":
        """Lower-intensity variants of this model, strongest reduction
        first — what the fuzzer's shrinker tries.  Every halving has a
        floor, so weakening chains stay finite; none by default."""
        return []

    def draw(self, num_nodes: int, rng, horizon: float,
             experiment=None) -> "tuple[list[Fault], dict[str, float]]":
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
                             metrics, model=self,
                             faults=fired_faults(faults, horizon))


def resolve_index(count: int, index: int, what: str) -> int:
    if not -count <= index < count:
        raise ScenarioError(
            f"{what} index {index} out of range for {count} nodes")
    return index % count


def resolve_indices(count: int, indices: Sequence[int], what: str) -> list[int]:
    return [resolve_index(count, index, what) for index in indices]


@dataclass(frozen=True)
class GroupModel(ScenarioModel):
    """Multicast group choreography for tree-building protocols.

    Node ``source`` creates ``group`` at ``at``; the ``members`` (every
    other node by default) join it staggered ``spacing`` seconds apart.
    This is the setup a multicast :class:`WorkloadModel` needs on protocols
    like Scribe, expressed as a model so fuzzed and curated specs can drive
    tree protocols without hand-written choreography.  Joins are skipped for
    nodes that are crashed or uninitialised when their join fires.  A live
    node process runs the rows :meth:`draw` gives its own node.
    """

    group: int = 1
    source: int = 0
    at: float = 0.0
    spacing: float = 0.25
    members: tuple[int, ...] = ()    # empty = everyone except source

    def draw(self, num_nodes, rng, horizon, experiment=None):
        """The create row, then one join row per member.  A row's verb is
        the :class:`~repro.runtime.node.MacedonNode` method its node runs
        with the row's arguments."""
        source = resolve_index(num_nodes, self.source, "group source")
        if self.members:
            members = [index for index in
                       resolve_indices(num_nodes, self.members, "group member")
                       if index != source]
        else:
            members = [index for index in range(num_nodes) if index != source]
        rows = [Fault(self.at, "macedon_create_group", (self.group,),
                      f"node {source} creates group {self.group}",
                      node=source)]
        rows += [Fault(self.at + (offset + 1) * self.spacing, "macedon_join",
                       (self.group,), f"node {index} joins group {self.group}",
                       node=index)
                 for offset, index in enumerate(members)]
        return rows, {"members": float(len(members))}

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        rows, metrics = self.draw(len(experiment.nodes), rng, horizon)
        joined = 0

        def _run(row) -> None:
            nonlocal joined
            node = experiment.nodes[row.node]
            if node.alive and node.initialized:
                getattr(node, row.verb)(*row.args)
                joined += row.verb == "macedon_join"

        events = [ScenarioEvent(row.at, "group", row.detail,
                                partial(_run, row), node=row.node)
                  for row in rows]
        return CompiledModel(
            self.label or self.default_label(), events, payload=lambda: joined,
            score=partial(self.score, metrics), model=self)

    @staticmethod
    def score(metrics: dict, counts: list) -> dict[str, float]:
        """The drawn *metrics* plus ``joined``.  Each member's join fires in
        the process that owns it, so the per-process counts pool by
        summing."""
        return dict(metrics, joined=float(sum(counts)))


# The fault and workload planes import the base classes above: load here.
from .faults import (FAULT_VERBS, ChurnModel, CorrelatedCrashModel,  # noqa: E402,F401
                     CrashModel, DegradeModel, Fault, FlappingPartitionModel,
                     FlashCrowdModel, PartitionModel, fault_horizon,
                     fired_faults)
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
        if self.start < 0:
            raise ScenarioError(f"sample series {self.name!r} starts "
                                f"{self.start} s in the past")


# --------------------------------------------------------------------- result
@dataclass
class ScenarioResult:
    """Everything one scenario run produced, in simulation or live."""

    name: str
    seed: int
    duration: float
    metrics: dict[str, float]
    series: dict[str, list[tuple[float, float]]]
    events: list[tuple[float, str, str]]
    #: The simulated experiment, for ad-hoc inspection (not used in
    #: aggregation); ``None`` for a live run.
    experiment: Any = None
    #: The ``repro.obs/1`` snapshot when the spec opted into observability
    #: (``ScenarioSpec.obs``); ``None`` otherwise.  Kept separate from
    #: ``metrics``, whose key set and values are pinned byte-identical for
    #: the obs-disabled path.
    obs: Optional[dict] = None
    #: A live run's node process reports, in index order
    #: (:mod:`repro.live.node`); ``None`` for a simulated run.
    per_node: Optional[list] = None


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
    #: Seconds after the last fault transition from which ops score
    #: ``<label>.post_fault_success_ratio`` (:func:`score_recovery`).
    post_fault_settle: float = 2.0

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """This spec, re-seeded (the multi-seed runner's replication knob)."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------- build
    def resolve_agents(self) -> list[Type[Agent]]:
        agents = self.agents() if callable(self.agents) else self.agents
        return list(agents)

    def build(self) -> "OverlayExperiment":  # noqa: F821
        """Construct the experiment and schedule every model onto it."""
        from .experiment import OverlayExperiment

        if self.duration <= 0:
            raise ScenarioError("scenario duration must be positive")
        experiment = OverlayExperiment(self)
        if self.configure is not None:
            self.configure(experiment)
        for model in self.models:
            experiment.apply_model(model)
        return experiment

    # --------------------------------------------------------------------- run
    def run(self) -> ScenarioResult:
        """Execute the scenario and collect metrics, series, and event log.

        Builds the experiment, attaches observability, schedules the sample
        series, advances the clock to ``duration``, unwinds the models and
        scores each over what it observed.  Runs in this process and hands
        back the live experiment on the result.
        """
        experiment = self.build()
        simulator = experiment.simulator
        emulator = experiment.emulator
        tracer = experiment.tracer

        obs_registry = obs_causal = None
        if self.obs is not None:
            from ..obs import CausalLog, base_registry
            obs_registry = base_registry()
            if tracer.sink is not None:
                tracer.sink.update_meta(mode="sim", name=self.name,
                                        seed=self.seed)
            if self.obs.causal:
                obs_causal = CausalLog(tracer, simulator,
                                       registry=obs_registry)
                emulator.install_delivery_wrapper(obs_causal.wrap_delivery)
                emulator.install_send_tap(obs_causal.tag)

        series: dict[str, list[tuple[float, float]]] = {}
        for sample in self.samples:
            points = series.setdefault(sample.name, [])
            when = sample.start
            while when <= self.duration + 1e-9:
                simulator.schedule_at(
                    when,
                    lambda s=sample, p=points: p.append(
                        (simulator.now, float(s.fn(experiment)))))
                when += sample.interval

        experiment.run(self.duration)

        # Reverse apply order: each restore() re-installs what the model saw
        # when it was applied, so unwinding must pop the chain LIFO.
        for compiled in reversed(experiment.compiled_models):
            compiled.restore()

        # The whole run is one process, so it files one report.
        compiled_models = experiment.compiled_models
        labels = metric_labels(compiled.label for compiled in compiled_models)
        stats = emulator.stats
        report = {
            "models": {label: compiled.shard_payload() for label, compiled
                       in zip(labels, compiled_models)},
            "events_processed": simulator.events_processed,
            "net": {"packets_sent": stats.packets_sent,
                    "packets_delivered": stats.packets_delivered,
                    "packets_dropped": stats.packets_dropped,
                    "bytes_delivered": stats.bytes_delivered},
            "trace": {"records": sum(tracer.counts.values()),
                      "dropped": tracer.dropped},
            "ring": ring_rows(experiment.nodes),
        }
        nodes = experiment.nodes

        obs_snapshot = None
        if obs_registry is not None:
            from ..obs import artifact, fill, write_obs_snapshot
            fill(obs_registry, [report],
                 [label for label, compiled in zip(labels, compiled_models)
                  if hasattr(compiled, "observations")],
                 nodes_total=len(nodes),
                 nodes_alive=sum(node.alive for node in nodes),
                 causal=obs_causal)
            if tracer.sink is not None:
                tracer.sink.close()
            obs_snapshot = artifact(obs_registry, mode="sim", name=self.name,
                                    seed=self.seed, duration=self.duration)
            if self.obs.snapshot_path:
                write_obs_snapshot(self.obs.snapshot_path, obs_snapshot)

        metrics = score_models(compiled_models, [report])
        metrics.update(score_recovery(compiled_models, [report],
                                      self.post_fault_settle))
        metrics.update({f"net.{key}": float(value)
                        for key, value in report["net"].items()})
        metrics.update({
            "sim.events_processed": float(simulator.events_processed),
            "nodes.alive": float(sum(node.alive for node in nodes)),
            "nodes.crashes": float(sum(node.crash_count for node in nodes)),
            "nodes.recoveries": float(sum(node.recover_count
                                          for node in nodes)),
        })

        events = [(event.time, event.kind, event.detail)
                  for compiled in compiled_models
                  for event in compiled.events]
        events.sort(key=lambda item: item[0])
        return ScenarioResult(name=self.name, seed=self.seed,
                              duration=self.duration, metrics=metrics,
                              series=series, events=events,
                              experiment=experiment, obs=obs_snapshot)
