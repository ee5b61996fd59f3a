"""Multi-process live deployments on localhost.

A live deployment is a :class:`~repro.eval.scenario.ScenarioSpec` on a
scaled clock.  :class:`LiveCluster` boots one OS process per node of the spec
(:mod:`repro.live.node`), each running the *unchanged* registry-compiled
stack on a :class:`~repro.live.driver.LiveDriver` and a
:class:`~repro.transport.udp.SocketUdpNetwork` socket.  Every process, and
the coordinator, draws the spec's schedule as the simulator draws it
(:meth:`~repro.eval.scenario.ScenarioSpec.draw`), binds it with the
simulator's binder (:func:`~repro.eval.scenario.bind_model`) and runs its
own share in spec seconds: a node process its node's joins, group rows and
workload ops and every partition and degrade row, on its own socket's fault
table; the coordinator the rows that need another process, crashes and
recoveries, by verb, as :class:`~repro.eval.experiment.OverlayExperiment`
runs them.  The coordinator scores the node reports with the models it
bound into the simulator's :class:`~repro.eval.scenario.ScenarioResult`,
through the function the simulator builds its own with
(:func:`~repro.eval.scenario.build_result`): one ruler for both modes, the
paper's Figure-1 promise.

Coordination is minimal: a static address→port map, a start barrier whose
action fixes the cluster's zero on the host's monotonic clock, and a results
queue.  Once the barrier drops, nodes talk only protocol traffic.  When the
spec draws fault rows the coordinator becomes a supervisor: real
``SIGKILL`` signals, respawns under a per-node restart budget (a reborn process
re-enters through the transport restart epoch, on the shared zero, and
re-applies the network rows that stand at its rebirth).  Nothing is sent to
a node after the barrier.  A node that exhausts its budget is accounted
*down*, not a run failure.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import signal
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from queue import Empty
from typing import Optional

from ..dsl.errors import MacError
from ..eval.scenario import (CompiledModel, ScenarioError, ScenarioResult,
                             ScenarioSpec, Stack, bind_model, build_result,
                             metric_labels)
from ..eval.workload import WorkloadModel
from ..transport.udp import FIRST_ADDRESS, SocketUdpNetwork
from .node import TRANSPORT_TOTALS, worker_entry

#: Wall seconds a spec is fitted into when its config sets no ``time_scale``:
#: a 300-second scenario does not hold real sockets for five minutes.
WALL_BUDGET = 12.0

#: Exponential-backoff schedule, in spec seconds, for respawning a node that
#: died *unexpectedly*: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**restarts)``.  A
#: crashed node's recovery waits at most ``BACKOFF_CAP`` of stretch.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 8.0

#: Wall seconds the coordinator waits between looks at its queue and clock,
#: and for node reports once the spec's horizon has passed.
POLL = 0.01
REPORT_TIMEOUT = 30.0


class LiveClusterError(RuntimeError):
    """Raised when a live deployment fails to boot, run, or report."""


@dataclass(frozen=True)
class LiveClusterConfig:
    """A :class:`~repro.eval.scenario.ScenarioSpec`, whole, plus what only a
    deployment has.  ``spec.obs`` attaches the observability layer as it
    does in simulation."""

    spec: ScenarioSpec
    #: Wall seconds per spec second, which everything above the socket
    #: keeps (rows, protocol timers, RTO, failure detector).  ``None`` fits
    #: the spec into :data:`WALL_BUDGET` seconds, never slower than real
    #: time.
    time_scale: Optional[float] = None
    host: str = "127.0.0.1"
    base_port: int = 47000
    #: multiprocessing start method; None picks "fork" where available
    #: (children inherit the compiled registry) and "spawn" elsewhere.
    start_method: Optional[str] = None
    #: Seconds each process gets to import, compile, and bind its socket.
    startup_timeout: float = 60.0
    #: How many supervised respawns any one node gets before it is
    #: accounted as permanently down (graceful degradation).
    restart_budget: int = 3

    def __post_init__(self) -> None:
        spec = self.spec
        if not isinstance(spec.agents, Stack):
            raise ScenarioError(
                "spec.agents has no live deployment: a node process compiles "
                "its stack by registry name, so live mode needs a "
                "repro.eval.Stack")
        try:        # an unknown name fails here, before any process spawns
            spec.agents.resolve()
        except MacError as exc:
            raise ScenarioError(str(exc)) from None
        if not any(isinstance(model, WorkloadModel) for model in spec.models):
            raise ScenarioError(
                "spec.models has no WorkloadModel: live mode needs a "
                "WorkloadModel to know what traffic to drive")
        if spec.num_nodes < 1:
            raise LiveClusterError("a live cluster needs at least one node")
        if spec.duration <= 0:
            raise ScenarioError("scenario duration must be positive")
        if self.time_scale is not None and self.time_scale <= 0:
            raise LiveClusterError("time_scale must be positive")
        if self.restart_budget < 0:
            raise LiveClusterError("restart_budget cannot be negative")

    # ------------------------------------------------------------- schedule
    @property
    def scale(self) -> float:
        if self.time_scale is not None:
            return self.time_scale
        return min(1.0, WALL_BUDGET / self.spec.duration)

    def endpoints(self) -> dict[int, tuple[str, int]]:
        return {FIRST_ADDRESS + index: (self.host, self.base_port + index)
                for index in range(self.spec.num_nodes)}


# -------------------------------------------------------------- coordinator
class LiveCluster:
    """Boot a :class:`LiveClusterConfig` across processes and aggregate.

    The fault verbs are the :class:`~repro.eval.experiment.OverlayExperiment`
    methods that need a process other than the node's — ``crash_node`` and
    its undo — with their names and arguments, so a drawn
    :class:`~repro.eval.faults.Fault` row runs here as it runs in
    simulation: the verb at ``at``, its ``FAULT_VERBS`` undo at ``until``.
    The supervision state lives on the instance: one instance, one run.
    """

    def __init__(self, config: LiveClusterConfig) -> None:
        self.config = config
        #: Supervision state per node index.
        self._state: dict[int, dict] = {
            index: {"incarnation": 0, "restarts": 0, "killed": 0,
                    "killed_at": None, "down": False,
                    "pending_respawn": False, "proc": None}
            for index in range(config.spec.num_nodes)
        }
        #: Timed actions, ``(at, seq, callable, args)`` in spec seconds.
        self._actions: list = []
        self._seq = itertools.count()
        #: Scheduled offset of the action running now.
        self._now = 0.0
        #: The spec's models as this coordinator binds them (:meth:`_bind`).
        self._compiled: list[CompiledModel] = []
        self._processes: list = []

    # ------------------------------------------------------------ fault verbs
    def crash_node(self, index: int) -> None:
        """SIGKILL node *index*; it counts as down until recovered.
        Crashing a dead node is a no-op."""
        node = self._state[index]
        if node["down"] or node["pending_respawn"]:
            return
        process = node["proc"]
        if process is not None and process.is_alive():
            with suppress(ProcessLookupError):   # exit race
                os.kill(process.pid, signal.SIGKILL)
            process.join(5.0)
        node.update(down=True, killed=node["killed"] + 1, killed_at=self._now)

    def recover_node(self, index: int) -> None:
        """Respawn crashed node *index* within the restart budget, after
        ``min(BACKOFF_CAP, downtime * (2**restarts - 1))`` more seconds: at
        once the first time, later for a node that has burned restarts.  A
        node that was not crashed is left alone."""
        node = self._state[index]
        if node["killed_at"] is None:
            return
        downtime, node["killed_at"] = self._now - node["killed_at"], None
        if node["restarts"] < self.config.restart_budget:
            node["pending_respawn"] = True
            stretch = downtime * (2 ** node["restarts"] - 1)
            self._push(self._now + min(BACKOFF_CAP, stretch), self._respawn,
                       index)

    # ---------------------------------------------------------- supervision
    def _bind(self) -> list[CompiledModel]:
        """Draw the spec and bind every model as a process that owns no
        node (:func:`~repro.eval.scenario.bind_model`): the crash rows
        become this supervisor's actions, each verb at ``at`` and its undo
        at ``until``, those due by the spec's horizon."""
        duration = self.config.spec.duration
        self._compiled = [bind_model(drawn, self, {}, set(), duration)
                          for drawn in self.config.spec.draw()]
        for compiled in self._compiled:
            for event in compiled.events:
                if event.time <= duration:   # a partial of one of our verbs
                    self._push(event.time, event.apply.func,
                               *event.apply.args)
        return self._compiled

    def _push(self, at: float, action, *args) -> None:
        heapq.heappush(self._actions, (at, next(self._seq), action, args))

    def _spawn(self, index: int) -> None:
        incarnation = self._state[index]["incarnation"]
        name = f"live-node-{FIRST_ADDRESS + index}"
        if incarnation:
            name = f"{name}.{incarnation}"
        process = self._ctx.Process(
            target=worker_entry,
            args=(self.config, index, None if incarnation else self._barrier,
                  self._results, self._ready, self._zero, incarnation),
            name=name, daemon=True)
        process.start()
        self._processes.append(process)
        self._state[index]["proc"] = process

    def _respawn(self, index: int) -> None:
        node = self._state[index]
        node.update(incarnation=node["incarnation"] + 1,
                    restarts=node["restarts"] + 1, down=False,
                    pending_respawn=False)
        self._spawn(index)

    def _clock(self) -> float:
        """The cluster's spec-second clock, as every node's driver reads it:
        the one place the coordinator converts wall time."""
        return (time.monotonic() - self._zero.value) / self.config.scale

    # ------------------------------------------------------------------- run
    def run(self) -> ScenarioResult:
        config = self.config
        nodes = config.spec.num_nodes
        # Drawn before any process starts: compiling the stack validates the
        # protocol (and fork children inherit the warm registry), and a spec
        # the simulator would refuse is refused here.
        self._bind()

        # Fork children inherit asyncio already imported: `repro.live`
        # imports the driver, which imports it.  The socket module imports
        # asyncio only when a socket opens, so a child would otherwise pay
        # that import at boot.
        self._ctx = multiprocessing.get_context(config.start_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"))
        # The coordinator is the (nodes+1)-th barrier party, so it learns
        # "everyone booted" without a report; the barrier's action fixes the
        # cluster clock's zero as the last party arrives.
        self._zero = self._ctx.Value("d", 0.0)
        self._barrier = self._ctx.Barrier(
            nodes + 1, action=partial(_set_zero, self._zero))
        self._ready = self._ctx.Array("b", nodes)
        self._results = results_queue = self._ctx.Queue()
        state, actions = self._state, self._actions
        reports: dict[int, dict] = {}

        try:
            for index in range(nodes):
                self._spawn(index)
            try:
                self._barrier.wait(config.startup_timeout)
            except threading.BrokenBarrierError:
                raise self._startup_failure(reports) from None
            deadline = None

            while True:
                now = self._clock()
                # 1. fire due fault-plane actions
                while actions and actions[0][0] <= now:
                    self._now, _, action, args = heapq.heappop(actions)
                    action(*args)

                expected = [i for i in range(nodes) if not state[i]["down"]]
                if all(i in reports for i in expected) and not actions:
                    # Every pending action changes who reports.
                    break
                if deadline is None and now > config.spec.duration:
                    deadline = time.monotonic() + REPORT_TIMEOUT
                if deadline is not None and time.monotonic() > deadline:
                    missing = sorted(set(expected) - set(reports))
                    raise LiveClusterError(
                        f"live cluster timed out waiting for node reports "
                        f"(missing indices: {missing})")

                # 2. take a report
                try:
                    index, report = results_queue.get(timeout=POLL)
                except Empty:
                    pass
                else:
                    reports[index] = report
                    continue

                # 3. supervise: a worker dead without a report respawns within
                # budget or is down; with no fault plan, fail fast.
                for index in expected:
                    node_state = state[index]
                    if (index in reports or node_state["pending_respawn"]
                            or node_state["proc"].is_alive()):
                        continue
                    if not any(compiled.faults
                               for compiled in self._compiled):
                        raise LiveClusterError(
                            f"live node process died without reporting "
                            f"(index {index}, exit code "
                            f"{node_state['proc'].exitcode})")
                    if node_state["restarts"] < config.restart_budget:
                        node_state["pending_respawn"] = True
                        delay = min(BACKOFF_CAP,
                                    BACKOFF_BASE * 2 ** node_state["restarts"])
                        self._push(now + delay, self._respawn, index)
                    else:
                        node_state["down"] = True
        finally:
            # Orphan cleanup covers every process ever started, including
            # respawned incarnations: join, then escalate to terminate and
            # finally kill — a coordinator exit must leave no node behind.
            for process in self._processes:
                process.join(timeout=10.0)
                for stop in (process.terminate, process.kill):
                    if process.is_alive():   # pragma: no cover - stuck
                        stop()
                        process.join(timeout=5.0)

        per_node = [reports.get(index) or self._down_report(index, state[index])
                    for index in range(nodes)]
        self._verdict(per_node)
        return self._aggregate(per_node)

    def _verdict(self, per_node: list[dict]) -> None:
        """Fail the run on any node that failed, or that "passed" while its
        LiveDriver swallowed transition errors (→ non-zero exit)."""
        failures = [report for report in per_node if "error" in report]
        if failures:
            detail = "; ".join(f"node {report['address']}: {report['error']}"
                               for report in failures)
            raise LiveClusterError(
                f"{len(failures)}/{len(per_node)} live nodes failed — "
                f"{detail}\nfirst traceback:\n"
                f"{failures[0].get('traceback', '')}")
        noisy = [report for report in per_node
                 if report.get("callback_error_count")]
        if noisy:
            detail = "; ".join(
                f"node {report['address']}: {report['callback_error_count']} "
                f"error(s), first {report['callback_errors'][0]}"
                for report in noisy)
            raise LiveClusterError(
                f"live drivers recorded callback exceptions on "
                f"{len(noisy)} node(s) — {detail}")

    # ------------------------------------------------------------- helpers
    def _startup_failure(self, reports: dict) -> LiveClusterError:
        """Name the node(s) that broke the start barrier: the ones whose
        boot failed (port bind, import), else the ones still short of it."""
        # A worker that merely saw the barrier break is a casualty; the
        # cause's report may still be in the queue feeder, so poll briefly.
        deadline = time.time() + 2.0
        while True:
            with suppress(Empty):
                while True:
                    index, report = self._results.get_nowait()
                    reports[index] = report
            causes = [report for _, report in sorted(reports.items())
                      if "barrier broke" not in report["error"]]
            if causes or time.time() >= deadline:
                break
            time.sleep(0.05)
        if causes:
            return LiveClusterError(
                "live cluster failed to start — " + "; ".join(
                    f"node {report['address']}: {report['error']}"
                    for report in causes))
        stuck = [(index, self._state[index]["proc"])
                 for index in range(self.config.spec.num_nodes)
                 if not self._ready[index]]
        parts = ", ".join(
            f"node {FIRST_ADDRESS + index} (pid {process.pid}, "
            + ("alive" if process.is_alive()
               else f"exit code {process.exitcode}") + ")"
            for index, process in stuck)
        return LiveClusterError(
            f"cluster startup timed out after "
            f"{self.config.startup_timeout:.0f}s: {len(stuck)} node(s) "
            f"never reached the start barrier — {parts}; "
            f"still importing/compiling, or stuck binding a port?")

    def _down_report(self, index: int, node_state: dict) -> dict:
        """Placeholder report for a node that stayed down (budget spent or
        killed with no respawn): zero contribution, visible in the count."""
        return {"address": FIRST_ADDRESS + index, "state": "down",
                "down": True, "incarnation": node_state["incarnation"],
                "models": {}, "events_processed": 0,
                "callback_error_count": 0,
                "transport": dict.fromkeys(TRANSPORT_TOTALS, 0),
                "socket": dict.fromkeys(SocketUdpNetwork.STATS, 0)}

    # ------------------------------------------------------------ aggregation
    def _aggregate(self, per_node: list[dict]) -> ScenarioResult:
        """Score the run with the models this coordinator bound
        (:func:`~repro.eval.scenario.build_result`), then add what only a
        deployment has: process, transport and socket totals and the
        supervisor's counts."""
        spec = self.config.spec
        labels = metric_labels(compiled.label for compiled in self._compiled)
        workloads = [(label, compiled.model) for label, compiled
                     in zip(labels, self._compiled) if hasattr(compiled, "plan")]
        result = build_result(
            spec, self._compiled, per_node, mode="live", name=spec.name,
            nodes_alive=sum(not report.get("down") for report in per_node),
            series={}, events=[], per_node=per_node)
        metrics = result.metrics
        for label, workload in workloads:
            # Staleness needs a strictly-before clock, which the per-process
            # store clocks do not give us; the version-space checks (phantom
            # reads, coverage) are sound across processes and stay.
            metrics.pop(f"{label}.stale_reads", None)
            # Every scheduled op nobody is known to have issued: its node
            # was down, not yet re-joined, or died with the record of
            # sending it.
            metrics[f"{label}.skipped"] = \
                workload.packets - metrics[f"{label}.sent"]
        metrics.update({
            "nodes.count": float(spec.num_nodes),
            "nodes.joined": float(sum(
                1 for report in per_node
                if report["state"] not in ("init", "down"))),
            "nodes.callback_errors": float(sum(
                report["callback_error_count"] for report in per_node)),
        })
        for counter, key in (("killed", "killed"), ("respawns", "restarts"),
                             ("down", "down")):
            metrics[f"nodes.{counter}"] = float(sum(
                node[key] for node in self._state.values()))
        for key in ("messages_sent", "retransmissions"):
            metrics[f"transport.{key}"] = float(sum(
                report["transport"][key] for report in per_node))
        for key in ("decode_errors", "fault_drops", "reassembly_timeouts"):
            metrics[f"socket.{key}"] = float(sum(
                report["socket"][key] for report in per_node))
        obs = spec.obs
        if obs is not None and obs.trace_path:
            from ..obs import TraceSink

            # Every node's shipped tracer records, one time-sorted stream.
            sink = TraceSink(obs.trace_path, meta={
                "mode": "live", "name": result.name, "seed": spec.seed})
            for record in sorted(
                    (record for report in per_node
                     for record in report.pop("trace_records", ())),
                    key=attrgetter("time")):
                sink.write(record)
            sink.close()
        return result


def _set_zero(zero) -> None:
    """The start barrier's action: the cluster clock's zero is the instant
    the last party arrives, on the monotonic clock every event loop on the
    host reads."""
    zero.value = time.monotonic()
