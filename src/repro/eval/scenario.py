"""Declarative experiment scenarios.

The paper's evaluation does not just boot N nodes and measure: it joins them
under realistic schedules, kills them, lets the failure detector drive
``error`` transitions, and measures workloads *while* the overlay is
repairing itself.  A :class:`ScenarioSpec` describes one such run — which
agents, how many nodes, and a set of typed event models: the fault models of
:mod:`repro.eval.faults`, :class:`GroupModel` choreography and the
:class:`WorkloadModel` of :mod:`repro.eval.workload`, re-exported here.

A spec means the same run under every driver, because every driver takes
one path through this module: :func:`draw_model` draws each model once, as
data, from an RNG forked from the seed (:meth:`ScenarioSpec.draw` draws
them all); :func:`bind_model` turns a draw into the events of the process
that runs them — the simulated experiment, a live node process or the
live coordinator; and
:func:`build_result` scores the processes' reports into one
:class:`ScenarioResult`.

Event times are **offsets from the moment the model is applied**;
:meth:`ScenarioSpec.run` applies every model at time zero, so a spec is a
pure function of ``(spec, seed)`` — the fixed-seed determinism tests pin
this.  :class:`~repro.eval.runner.ScenarioRunner` executes one spec across
several seeds and aggregates the resulting metrics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import (Any, Callable, Iterable, Mapping, NamedTuple, Optional,
                    Sequence, Type, Union)

from ..codegen.registry import get_registry
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


class CompiledModel:
    """A model bound to one experiment: its events, what it observed, and the
    one formula that scores it.

    ``payload`` returns this process's raw, picklable observations and
    ``score`` is a pure function from the payloads of every process that ran
    the scenario (one in the simulator, N in a live cluster) to the metrics
    dict.  A model whose metrics its draw fixes returns them as its payload
    and takes the default scorer: its own dict, which any process that
    reports the model must report too.
    ``faults`` are the rows of its draw that fire by the horizon.
    """

    def __init__(self, label: str, events: Sequence[ScenarioEvent],
                 payload: Callable[[], Any],
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
        return self._payload()

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
    :class:`WorkloadModel` with its own ``draw``.  Every driver draws it
    through :func:`draw_model` and binds it with :func:`bind_model`; a
    model that scores what it observed (:class:`GroupModel`,
    :class:`WorkloadModel`) also has a ``score``.
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

    @staticmethod
    def score(metrics: dict, counts: list) -> dict[str, float]:
        """The drawn *metrics* plus ``joined``: each member's join fires in
        the process that owns it, so the per-process counts sum."""
        return dict(metrics, joined=float(sum(counts)))


# The fault and workload planes import the base classes above: load here.
from .faults import (FAULT_VERBS, ChurnModel, CorrelatedCrashModel,  # noqa: E402,F401
                     CrashModel, DegradeModel, Fault, FlappingPartitionModel,
                     FlashCrowdModel, PartitionModel, fault_horizon,
                     fired_faults)
from .workload import (KvWorkloadState, NodeWorkload,  # noqa: E402,F401
                       WorkloadModel, WorkloadObservations, WorkloadPlan)


# ------------------------------------------------------------------- schedule
class Drawn(NamedTuple):
    """One model's draw: a workload's ``plan``, or another model's ``rows``
    and the ``metrics`` its draw fixes."""

    model: ScenarioModel
    plan: Optional[WorkloadPlan]
    rows: list
    metrics: dict


def draw_model(model: ScenarioModel, num_nodes: int, key_space: int, rng,
               horizon: float, experiment=None) -> Drawn:
    """*model*'s schedule, drawn once from *rng*: the one draw of every
    driver.  An event before the moment the model is applied raises
    :class:`ScenarioError` here, in the words of its event kind."""
    if isinstance(model, WorkloadModel):
        plan = model.draw(num_nodes, key_space, rng, horizon)
        for op in plan.ops:
            check_event_time(model.kind, op.time)
        return Drawn(model, plan, [], {})
    rows, metrics = model.draw(num_nodes, rng, horizon, experiment)
    for row in rows:
        kind, _undo, undo_kind, _arity = FAULT_VERBS.get(
            row.verb, ("group", None, "group", 0))
        check_event_time(kind, row.at)
        if row.until is not None:
            check_event_time(undo_kind, row.until)
    return Drawn(model, None, rows, metrics)


def bind_model(drawn: Drawn, executor, nodes: Mapping[int, Any],
               streams: set, horizon: float,
               bootstrap: Optional[int] = None) -> CompiledModel:
    """*drawn* as one process's events: the one binder of every driver.

    *nodes* maps the indices this process owns to their nodes; *executor*
    runs the fault rows whose verb it has, and no other.  A fault row is
    its verb at ``at`` and its :data:`FAULT_VERBS` undo at ``until``; a join
    row is ``executor.join_node`` on an owned node, or with *bootstrap*
    that node's ``macedon_init(bootstrap)``; any other row runs on an owned
    node that is up, and a workload op on the :class:`NodeWorkload` share
    of an owned node.  *streams* are the workload streams claimed so far.
    """
    model, plan = drawn.model, drawn.plan
    label = model.label or model.default_label()
    events: list[ScenarioEvent] = []
    if plan is not None:
        stream_id = model.claim_stream(streams)
        observations = WorkloadObservations()
        shares = {index: NodeWorkload(node, model, stream_id, observations)
                  for index, node in nodes.items()}
        events = [ScenarioEvent(
            op.time, "kv-repair" if op.verb == "repair" else model.kind,
            op.detail, partial(getattr(shares[op.node], op.verb), *op.args),
            node=op.node) for op in plan.ops if op.node in shares]
        # The events now hold this process's share of the schedule; keeping
        # the drawn ops as well would hold it in memory twice for the run.
        plan.ops = []

        def restore() -> None:
            for share in shares.values():
                share.restore()

        compiled = CompiledModel(label, events, observations.payload,
                                 partial(model.score, plan), restore,
                                 model=model)
        compiled.plan = plan                  # type: ignore[attr-defined]
        compiled.observations = observations  # type: ignore[attr-defined]
        if model.kind == "kv":
            compiled.kv_state = KvWorkloadState(  # type: ignore[attr-defined]
                observations, [share.app for share in shares.values()],
                model.replicas, model.write_quorum, model.read_quorum,
                model.start)
        return compiled

    joined = 0

    def run_on_node(node, row) -> None:
        nonlocal joined
        if node.alive and node.initialized:
            getattr(node, row.verb)(*row.args)
            joined += row.verb == "macedon_join"

    for row in drawn.rows:
        verbs = FAULT_VERBS.get(row.verb)
        if row.verb == "join_node":
            if row.node in nodes:
                events.append(ScenarioEvent(
                    row.at, verbs[0], row.detail,
                    partial(executor.join_node, *row.args) if bootstrap is None
                    else partial(nodes[row.node].macedon_init, bootstrap),
                    node=row.node))
        elif verbs is not None:
            if hasattr(executor, row.verb):
                kind, undo, undo_kind, undo_arity = verbs
                events.append(ScenarioEvent(
                    row.at, kind, row.detail,
                    partial(getattr(executor, row.verb), *row.args),
                    node=row.node))
                if row.until is not None:
                    events.append(ScenarioEvent(
                        row.until, undo_kind, row.undo_detail, partial(
                            getattr(executor, undo), *row.args[:undo_arity]),
                        node=row.node))
        elif row.node in nodes:
            events.append(ScenarioEvent(
                row.at, "group", row.detail,
                partial(run_on_node, nodes[row.node], row), node=row.node))
    score = getattr(model, "score", None)
    if score is None:
        return CompiledModel(label, events, partial(dict, drawn.metrics),
                             model=model,
                             faults=fired_faults(drawn.rows, horizon))
    return CompiledModel(label, events, lambda: joined,
                         partial(score, drawn.metrics), model=model)


def model_payloads(compiled_models: Sequence[CompiledModel]) -> dict:
    """A process report's ``"models"``: each model's payload in this
    process, under its metric label."""
    labels = metric_labels(compiled.label for compiled in compiled_models)
    return {label: compiled.shard_payload()
            for label, compiled in zip(labels, compiled_models)}


def build_result(spec: "ScenarioSpec", compiled_models: Sequence[CompiledModel],
                 reports: list, *, mode: str, name: str, nodes_alive: int,
                 **fields) -> "ScenarioResult":
    """The run's :class:`ScenarioResult`, whichever driver ran it: its
    models scored over the processes' *reports* (:func:`score_models`,
    :func:`score_recovery`), ``sim.events_processed``, and with ``spec.obs``
    the ``repro.obs/1`` snapshot.  The driver adds its own counters;
    *fields* are its other result fields."""
    metrics = score_models(compiled_models, reports)
    metrics.update(score_recovery(compiled_models, reports,
                                  spec.post_fault_settle))
    metrics["sim.events_processed"] = float(sum(
        report["events_processed"] for report in reports))
    snapshot = None
    if spec.obs is not None:
        from ..obs import fold_snapshot, write_obs_snapshot
        labels = metric_labels(compiled.label for compiled in compiled_models)
        snapshot = fold_snapshot(
            reports, [label for label, compiled in zip(labels, compiled_models)
                      if isinstance(compiled.model, WorkloadModel)],
            mode=mode, name=name, seed=spec.seed, duration=spec.duration,
            nodes_total=spec.num_nodes, nodes_alive=nodes_alive)
        if mode == "live":
            # Each node's stats samples, regrouped by instant.
            samples: dict[float, list] = {}
            for report in reports:
                for at, stats in report.pop("wallclock", ()):
                    samples.setdefault(at, []).append(stats)
            snapshot["wallclock"] = [{"t": at, "nodes": nodes}
                                     for at, nodes in sorted(samples.items())]
        if spec.obs.snapshot_path:
            write_obs_snapshot(spec.obs.snapshot_path, snapshot)
    return ScenarioResult(name=name, seed=spec.seed, duration=spec.duration,
                          metrics=metrics, obs=snapshot, **fields)


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


@dataclass(frozen=True)
class Stack:
    """A protocol stack by registry name, which the simulator and every live
    node process resolve to the same classes (docs/SCENARIOS.md).  ``base``
    replaces the lowest layer of the ``uses`` chain; each ``params`` row
    ``(protocol, var, value)`` is set on every fresh agent stack of a node,
    at construction and after every fail-stop recovery."""

    name: str
    base: Optional[str] = None
    params: tuple[tuple[str, str, Any], ...] = ()

    def resolve(self) -> list[Type[Agent]]:
        """The agent classes, lowest layer first.  A ``params`` row naming no
        declared ``var`` of a protocol in the stack is a ScenarioError."""
        classes = get_registry().load_stack(self.name, self.base)
        declared = {cls.PROTOCOL: [spec.name for spec in cls.STATE_VARS
                                   if spec.kind == "var"] for cls in classes}
        for protocol, var, _ in self.params:
            if var not in declared.get(protocol, ()):
                raise ScenarioError(
                    f"{self}: params row ({protocol!r}, {var!r}) names no "
                    f"declared var of the stack's protocols {declared}")
        return classes


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: agents, population, faults, and workload.

    ``agents`` is a :class:`Stack`, or a literal sequence of agent classes
    (simulation only: a live node process compiles its stack by name).
    ``topology`` may be a :class:`Topology` or a callable ``seed -> Topology``;
    by default a transit-stub topology with ``num_nodes`` clients is generated
    from the seed, so every seed sees a different (but reproducible) network.
    """

    name: str
    agents: Union[Stack, Sequence[Type[Agent]]]
    num_nodes: int
    duration: float
    seed: int = 0
    topology: Union[Topology, Callable[[int], Topology], None] = None
    random_loss_rate: float = 0.0
    failure_config: Optional[FailureDetectorConfig] = None
    models: tuple[ScenarioModel, ...] = ()
    samples: tuple[SampleSeries, ...] = ()
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
        if isinstance(self.agents, Stack):
            return self.agents.resolve()
        return list(self.agents)

    @property
    def params(self) -> tuple[tuple[str, str, Any], ...]:
        """The stack's ``params`` rows (a literal class sequence has none)."""
        return self.agents.params if isinstance(self.agents, Stack) else ()

    def build(self) -> "OverlayExperiment":  # noqa: F821
        """Construct the experiment and schedule every model onto it."""
        from .experiment import OverlayExperiment

        if self.duration <= 0:
            raise ScenarioError("scenario duration must be positive")
        experiment = OverlayExperiment(self)
        for model in self.models:
            experiment.apply_model(model)
        return experiment

    def draw(self) -> list[Drawn]:
        """The spec's deployment schedule, one :class:`Drawn` per model in
        spec order, each :func:`draw_model` on the stream the simulator's
        ``experiment.scenario_rng`` is: every process that draws holds the
        simulator's rows and plans, or its :class:`ScenarioError`.  A row no
        live process runs raises :class:`~repro.live.faults.LiveFaultError`."""
        from ..live import LiveCluster, LiveFaultError
        from ..live.node import NODE_VERBS

        key_space = self.resolve_agents()[0].KEY_SPACE.size
        rng = random.Random(f"{self.seed}:scenario")
        drawn = []
        for model in self.models:
            drawn.append(draw_model(model, self.num_nodes, key_space, rng,
                                    self.duration))
            for row in drawn[-1].rows:
                if row.verb not in NODE_VERBS and not (
                        row.verb in FAULT_VERBS
                        and hasattr(LiveCluster, row.verb)):
                    raise LiveFaultError(
                        f"a live cluster has no fault verb {row.verb!r} "
                        f"({type(model).__name__}: {row.detail})")
        return drawn

    # --------------------------------------------------------------------- run
    def run(self) -> ScenarioResult:
        """Execute the scenario and collect metrics, series, and event log.

        Builds the experiment, attaches observability, schedules the sample
        series, advances the clock to ``duration``, unwinds the models and
        scores each over what it observed (:func:`build_result`).  Runs in
        this process and hands back the live experiment on the result.
        """
        experiment = self.build()
        simulator = experiment.simulator
        emulator = experiment.emulator
        tracer = experiment.tracer

        obs_causal = None
        if self.obs is not None:
            from ..obs import CausalLog
            if tracer.sink is not None:
                tracer.sink.update_meta(mode="sim", name=self.name,
                                        seed=self.seed)
            if self.obs.causal:
                obs_causal = CausalLog(tracer, simulator)
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
        compiled_models = experiment.compiled_models
        for compiled in reversed(compiled_models):
            compiled.restore()

        # The whole run is one process, so it files one report.
        nodes = experiment.nodes
        stats = emulator.stats
        report = {
            "models": model_payloads(compiled_models),
            "events_processed": simulator.events_processed,
            "net": {"packets_sent": stats.packets_sent,
                    "packets_delivered": stats.packets_delivered,
                    "packets_dropped": stats.packets_dropped,
                    "bytes_delivered": stats.bytes_delivered},
            "trace": {"records": sum(tracer.counts.values()),
                      "dropped": tracer.dropped},
            "ring": ring_rows(nodes),
        }
        if obs_causal is not None:
            report["causal"] = obs_causal.report()
        if tracer.sink is not None:
            tracer.sink.close()

        events = [(event.time, event.kind, event.detail)
                  for compiled in compiled_models
                  for event in compiled.events]
        events.sort(key=lambda item: item[0])
        alive = sum(node.alive for node in nodes)
        result = build_result(self, compiled_models, [report], mode="sim",
                              name=self.name, nodes_alive=alive, series=series,
                              events=events, experiment=experiment)
        result.metrics.update({f"net.{key}": float(value)
                               for key, value in report["net"].items()})
        result.metrics.update({
            "nodes.alive": float(alive),
            "nodes.crashes": float(sum(node.crash_count for node in nodes)),
            "nodes.recoveries": float(sum(node.recover_count
                                          for node in nodes)),
        })
        return result
