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
from typing import Any, Callable, Optional, Sequence, Type, Union

from ..runtime.agent import Agent
from ..runtime.failure import FailureDetectorConfig
from ..network.topology import Topology


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
    #: network-wide event.  Sharded runs execute a node event only on the
    #: shard that owns the node and a network-wide one on every shard.
    node: Optional[int] = None

    def __post_init__(self) -> None:
        check_event_time(self.kind, self.time)


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

    A fault model (:mod:`repro.eval.faults`) defines :meth:`draw`; a model
    that observes the run (:class:`GroupModel`, :class:`WorkloadModel`)
    overrides :meth:`instantiate` instead.
    """

    label: str = ""

    def default_label(self) -> str:
        return type(self).__name__.removesuffix("Model").lower()

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
                             metrics)


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


# The fault and workload planes import the base classes above: load here.
from .faults import (FAULT_VERBS, ChurnModel, CorrelatedCrashModel,  # noqa: E402,F401
                     CrashModel, DegradeModel, Fault, FlappingPartitionModel,
                     FlashCrowdModel, PartitionModel)
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
        from ..runtime.sharded import (ShardCoordinator, ShardPlanError,
                                       plan_shards)

        experiment = self.build()
        degraded = tuple(link for model in self.models
                         if isinstance(model, DegradeModel)
                         for link in model.links)
        try:
            plan = plan_shards(experiment.topology, self.num_nodes, shards,
                               degraded)
        except ShardPlanError as exc:
            raise ScenarioError(f"cannot shard {self.name!r}: {exc}") from exc
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
                # Workers get disjoint id spaces.
                obs_causal = CausalLog(
                    tracer, simulator, registry=obs_registry,
                    origin=shard_id + 1 if in_worker else 0)
                emulator.install_delivery_wrapper(obs_causal.wrap_delivery)
                emulator.install_send_tap(obs_causal.tag)
        driver = None
        owned = experiment.nodes
        if in_worker:
            from ..runtime.sharded import ShardedDriver
            driver = ShardedDriver(simulator, shard_id=shard_id, plan=plan,
                                   endpoint=endpoint, registry=obs_registry)
            experiment.enter_shard(shard_id, plan, driver.capture)
            owned = [experiment.nodes[i] for i in plan.owned_nodes(shard_id)]

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
            driver.run_windows(barriers, emulator.inject_arrival)
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
