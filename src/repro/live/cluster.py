"""Multi-process live deployments on localhost.

A live deployment is a :class:`~repro.eval.scenario.ScenarioSpec` on a wall
clock.  :class:`LiveCluster` boots one OS process per node of the spec
(:mod:`repro.live.node`), each running one
:class:`~repro.runtime.node.MacedonNode` with the *unchanged*
registry-compiled protocol stack on a :class:`~repro.live.driver.LiveDriver`
clock and a :class:`~repro.transport.udp.SocketUdpNetwork` socket.  Every
process, and the coordinator, draws the spec's schedule exactly as the
simulator draws it (:meth:`LiveClusterConfig.draw`) and carries out its own
share, ``time_scale`` wall seconds to the simulated second: a node process
its node's joins, group rows and workload ops; the coordinator the fault
rows, by verb, as :class:`~repro.eval.experiment.OverlayExperiment` runs
them.  The coordinator scores the pooled observation payloads with the
workload model's own :meth:`~repro.eval.workload.WorkloadModel.score`, so
simulated and live runs of one specification are read off one ruler — the
paper's Figure-1 promise.

Coordination is deliberately minimal: endpoints are a static address→port
map computed up front, a process barrier aligns the zero of every node's
wall clock, and results come back over a queue.  In the *data* path there is
no runtime coordinator — once the barrier drops, the only communication
between nodes is protocol traffic over their UDP sockets.  The coordinator
re-enters only as the *fault* plane: when the spec draws fault rows it
becomes a supervisor — real ``SIGKILL``\\ s, respawns under a capped
exponential backoff and a per-node restart budget (the respawned process
re-enters through the transport restart-epoch machinery, resuming the shared
cluster clock mid-timeline), and partition/degrade rules sent one way into
every node's socket fault table over an out-of-band control channel.  A node
that exhausts its budget is accounted as *down* — graceful degradation, not
a run failure.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import random
import signal
import socket as socket_module
import threading
import time
from dataclasses import dataclass, field
from queue import Empty
from typing import Optional

from ..eval.faults import FAULT_VERBS
from ..eval.library import PROTOCOLS, RegistryStack
from ..eval.metrics import correct_successor_fraction
from ..eval.scenario import (ScenarioError, ScenarioResult, ScenarioSpec,
                             check_event_time)
from ..eval.workload import WorkloadModel, WorkloadObservations, WorkloadPlan
from ..transport.udp import SocketUdpNetwork
from .faults import (DEGRADE_DELAY_UNIT, MAX_DEGRADE_DELAY, MAX_DEGRADE_LOSS,
                     LiveFaultError, fault_horizon)
from .node import FIRST_ADDRESS, NODE_VERBS, TRANSPORT_TOTALS, worker_entry

#: Seconds after the spec's horizon for in-flight deliveries to land before
#: the processes shut down.
DRAIN = 1.0

#: Wall seconds a spec is fitted into when its config sets no ``time_scale``:
#: a 300-second scenario does not hold real sockets for five minutes.
WALL_BUDGET = 12.0

#: Exponential-backoff schedule for respawning a node that died
#: *unexpectedly*: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**restarts)``.  A
#: crashed node's recovery waits at most ``BACKOFF_CAP`` of stretch.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 8.0

#: Coordinator actions the run waits for even once every node it expects
#: has reported: each changes which nodes it expects.
_AWAITED = ("crash_node", "recover_node", "_respawn")


class LiveClusterError(RuntimeError):
    """Raised when a live deployment fails to boot, run, or report."""


@dataclass(frozen=True)
class LiveClusterConfig:
    """A :class:`~repro.eval.scenario.ScenarioSpec`, whole, plus what only a
    deployment has.  ``spec.obs`` attaches the observability layer as it
    does in simulation."""

    spec: ScenarioSpec
    #: Wall seconds per simulated second: every drawn join, op and fault
    #: runs at ``time_scale`` times its offset.  ``None`` fits the spec into
    #: :data:`WALL_BUDGET` seconds, never slower than real time.  Protocol
    #: timers are not scaled: they are wall-clock timers.
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
    #: Wall seconds of recovery after the last fault transition; probes
    #: sent past ``fault_horizon + post_fault_settle`` score the post-fault
    #: ratio.
    post_fault_settle: float = 2.0

    def __post_init__(self) -> None:
        spec = self.spec
        if not (isinstance(spec.agents, RegistryStack)
                and spec.agents in PROTOCOLS.values()):
            raise ScenarioError(
                f"spec.agents has no live deployment: a node process compiles "
                f"its stack by registry name, so live mode needs a row of "
                f"repro.eval.library.PROTOCOLS ({sorted(PROTOCOLS)})")
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
    def nodes(self) -> int:
        return self.spec.num_nodes

    @property
    def protocol(self) -> str:
        return self.spec.agents.name

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def workload(self) -> WorkloadModel:
        """The measurement traffic: the spec's first WorkloadModel."""
        return next(model for model in self.spec.models
                    if isinstance(model, WorkloadModel))

    @property
    def scale(self) -> float:
        if self.time_scale is not None:
            return self.time_scale
        return min(1.0, WALL_BUDGET / self.spec.duration)

    @property
    def duration(self) -> float:
        """The spec's horizon, in wall seconds."""
        return self.spec.duration * self.scale

    @property
    def total_runtime(self) -> float:
        return self.duration + DRAIN

    def endpoints(self) -> dict[int, tuple[str, int]]:
        return {FIRST_ADDRESS + index: (self.host, self.base_port + index)
                for index in range(self.nodes)}

    def draw(self) -> tuple[WorkloadPlan, list]:
        """The spec's schedule on the wall clock.

        Every model's own ``draw``, in spec order, from the stream the
        simulator's ``experiment.scenario_rng`` is (``fork_rng("scenario")``
        of the spec's seed) and without an underlay — so each process, and
        the coordinator, holds the simulator's own schedule without
        exchanging a byte, every offset times :attr:`scale`.  Returns the
        first workload's plan (a later workload is drawn, to keep the
        stream aligned, but not run) and the other models' rows.  A spec the
        simulator rejects raises its :class:`ScenarioError`, in its words; a
        row no live process can run raises
        :class:`~repro.live.faults.LiveFaultError`.
        """
        spec, scale = self.spec, self.scale
        key_space = spec.resolve_agents()[0].KEY_SPACE.size
        rng = random.Random(f"{spec.seed}:scenario")
        plans, rows = [], []
        for model in spec.models:
            if isinstance(model, WorkloadModel):
                plan = model.draw(spec.num_nodes, key_space, rng,
                                  spec.duration)
                for op in plan.ops:
                    check_event_time(model.kind, op.time)
                plans.append(plan)
                continue
            for row in model.draw(spec.num_nodes, rng, spec.duration)[0]:
                if row.verb not in NODE_VERBS and not (
                        row.verb in FAULT_VERBS
                        and hasattr(LiveCluster, row.verb)):
                    raise LiveFaultError(
                        f"a live cluster has no fault verb {row.verb!r} "
                        f"({type(model).__name__}: {row.detail})")
                kinds = FAULT_VERBS.get(row.verb, ("group",))
                check_event_time(kinds[0], row.at)
                if row.until is not None:
                    check_event_time(kinds[2], row.until)
                rows.append(row._replace(
                    at=row.at * scale,
                    until=None if row.until is None else row.until * scale))
        plan = plans[0]
        plan.ops = [op._replace(time=op.time * scale) for op in plan.ops]
        plan.window *= scale
        return plan, rows


@dataclass
class LiveClusterResult:
    """Aggregate result plus the raw per-process reports."""

    result: ScenarioResult
    per_node: list[dict] = field(default_factory=list)

    @property
    def metrics(self) -> dict[str, float]:
        return self.result.metrics


# -------------------------------------------------------------- coordinator
class LiveCluster:
    """Boot a :class:`LiveClusterConfig` across processes and aggregate.

    The fault verbs are the :class:`~repro.eval.experiment.OverlayExperiment`
    methods a deployment can carry out, with their names and arguments, so
    a drawn :class:`~repro.eval.faults.Fault` row runs here as it runs in
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
            for index in range(config.nodes)
        }
        #: Timed coordinator actions: ``(at, seq, callable, args)``.
        self._actions: list = []
        self._seq = itertools.count()
        #: Scheduled offset of the action running now.
        self._now = 0.0
        #: The fault rows this coordinator runs (:meth:`_schedule`).
        self._faults: list = []
        #: Standing network-fault rules (key → op), replayed to respawned
        #: nodes whose fresh fault tables would otherwise leak traffic
        #: through an unhealed partition.
        self._standing: dict = {}
        self._processes: list = []

    def _context(self):
        method = self.config.start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        return multiprocessing.get_context(method)

    # ------------------------------------------------------------ fault verbs
    def crash_node(self, index: int) -> None:
        """SIGKILL node *index*; it counts as down until recovered.
        Crashing a dead node is a no-op."""
        node = self._state[index]
        if node["down"] or node["pending_respawn"]:
            return
        process = node["proc"]
        if process is not None and process.is_alive():
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:   # pragma: no cover - exit race
                pass
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

    def partition(self, groups) -> None:
        """Host-group partition of node indices (the emulator's rule)."""
        self._control("partition", {
            "op": "partition",
            "groups": [[FIRST_ADDRESS + i for i in group]
                       for group in groups]})

    def heal_partition(self) -> None:
        self._control("partition", {"op": "heal-partition"})

    def degrade_node(self, index: int, bandwidth_factor: float,
                     latency_factor: float) -> None:
        """Degrade node *index*'s access link: the factors become capped
        added delay and loss."""
        delay = min(MAX_DEGRADE_DELAY,
                    (latency_factor - 1.0) * DEGRADE_DELAY_UNIT)
        loss = min(MAX_DEGRADE_LOSS, max(0.0, 1.0 - bandwidth_factor))
        address = FIRST_ADDRESS + index
        self._control(address, {"op": "degrade", "targets": [address],
                                "delay": round(delay, 4),
                                "loss": round(loss, 4)})

    def restore_node(self, index: int) -> None:
        address = FIRST_ADDRESS + index
        self._control(address, {"op": "restore", "targets": [address]})

    # ---------------------------------------------------------- supervision
    def _schedule(self, rows) -> None:
        """Queue this coordinator's share of the drawn *rows*: each fault
        verb at ``at`` and its undo at ``until``, as
        ``ScenarioModel.instantiate`` binds them.  What falls past the
        spec's horizon is not queued: it never fires in simulation either."""
        horizon = self.config.duration
        for row in rows:
            if row.verb in NODE_VERBS or row.at > horizon:
                continue
            if row.until is not None and row.until > horizon:
                row = row._replace(until=None)
            self._faults.append(row)
            _kind, undo, _undo_kind, undo_arity = FAULT_VERBS[row.verb]
            self._push(row.at, getattr(self, row.verb), *row.args)
            if row.until is not None:
                self._push(row.until, getattr(self, undo),
                           *row.args[:undo_arity])

    def _push(self, at: float, action, *args) -> None:
        heapq.heappush(self._actions, (at, next(self._seq), action, args))

    def _control(self, key, op: dict) -> None:
        """Send *op* to every node.  A partition or degrade stands under
        *key* until the heal or restore on the same key retires it."""
        if op["op"] in ("partition", "degrade"):
            self._standing[key] = op
        else:
            self._standing.pop(key, None)
        self._send_control(op)

    def _send_control(self, op: dict, addresses=None) -> None:
        frame = SocketUdpNetwork.control_frame(op)
        endpoints = self.config.endpoints()
        for address in addresses if addresses is not None else endpoints:
            for _ in range(2):   # UDP: fire twice, ops are idempotent
                try:
                    self._control_socket.sendto(frame, endpoints[address])
                except OSError:   # pragma: no cover - endpoint gone
                    pass

    def _spawn(self, index: int) -> None:
        incarnation = self._state[index]["incarnation"]
        name = f"live-node-{FIRST_ADDRESS + index}"
        if incarnation:
            name = f"{name}.{incarnation}"
        cold = incarnation == 0
        process = self._ctx.Process(
            target=worker_entry,
            args=(self.config, index, self._barrier if cold else None,
                  self._results, self._ready if cold else None,
                  incarnation, None if cold else self._t0),
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
        if self._standing:
            # The reborn socket needs the standing rules; send once it is
            # plausibly bound, then again in case the first volley raced
            # the bind.
            self._push(self._now + 0.5, self._replay, index)
            self._push(self._now + 1.5, self._replay, index)

    def _replay(self, index: int) -> None:
        for op in list(self._standing.values()):
            self._send_control(op, [FIRST_ADDRESS + index])

    # ------------------------------------------------------------------- run
    def run(self) -> LiveClusterResult:
        config = self.config
        # Drawn before any process starts: compiling the stack validates the
        # protocol (and fork children inherit the warm registry), and a spec
        # the simulator would refuse is refused here.
        plan, rows = config.draw()
        self._schedule(rows)

        self._ctx = self._context()
        supervise = bool(self._faults)
        # The coordinator is the (nodes+1)-th barrier party, so it learns
        # "everyone booted" (and the cluster clock zero) without a report.
        self._barrier = self._ctx.Barrier(config.nodes + 1)
        self._ready = self._ctx.Array("b", config.nodes)
        self._results = results_queue = self._ctx.Queue()
        self._control_socket = socket_module.socket(socket_module.AF_INET,
                                                    socket_module.SOCK_DGRAM)
        state, actions = self._state, self._actions
        reports: dict[int, dict] = {}

        try:
            for index in range(config.nodes):
                self._spawn(index)
            try:
                self._barrier.wait(config.startup_timeout)
            except threading.BrokenBarrierError:
                raise self._startup_failure(reports) from None
            self._t0 = t0 = time.time()
            deadline = t0 + config.total_runtime + 30.0

            while True:
                now = time.time() - t0
                # 1. fire due fault-plane actions
                while actions and actions[0][0] <= now:
                    self._now, _, action, args = heapq.heappop(actions)
                    action(*args)

                expected = [i for i in range(config.nodes)
                            if not state[i]["down"]]
                if (all(i in reports for i in expected)
                        and not any(action.__name__ in _AWAITED
                                    for _, _, action, _ in actions)):
                    # Leftover network actions (a heal scheduled past the
                    # run's end) have nobody left to heal — don't wait.
                    break
                remaining = deadline - time.time()
                if remaining <= 0:
                    missing = sorted(set(expected) - set(reports))
                    raise LiveClusterError(
                        f"live cluster timed out waiting for node reports "
                        f"(missing indices: {missing})")

                # 2. drain the results queue (bounded by the next action)
                next_action_in = actions[0][0] - now if actions else 2.0
                timeout = max(0.05, min(remaining, next_action_in, 0.5))
                drained = False
                try:
                    index, report = results_queue.get(timeout=timeout)
                    reports[index] = report
                    drained = True
                    while True:
                        index, report = results_queue.get_nowait()
                        reports[index] = report
                except Empty:
                    pass
                if drained:
                    continue

                # 3. supervise: a worker that died without reporting either
                # respawns (within budget) or is accounted down; without a
                # fault plan, keep the original fail-fast contract.
                for index in expected:
                    node_state = state[index]
                    if (index in reports or node_state["pending_respawn"]
                            or node_state["proc"].is_alive()):
                        continue
                    if not supervise:
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
            self._control_socket.close()
            # Orphan cleanup covers every process ever started, including
            # respawned incarnations: join, then escalate to terminate and
            # finally kill — a coordinator exit must leave no node behind.
            for process in self._processes:
                process.join(timeout=10.0)
            for process in self._processes:
                if process.is_alive():   # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5.0)
            for process in self._processes:
                if process.is_alive():   # pragma: no cover - unkillable
                    process.kill()
                    process.join(timeout=5.0)

        failures = {index: report for index, report in reports.items()
                    if "error" in report}
        if failures:
            detail = "; ".join(
                f"node {report['address']}: {report['error']}"
                for _, report in sorted(failures.items()))
            tb = next(iter(failures.values())).get("traceback", "")
            raise LiveClusterError(
                f"{len(failures)}/{config.nodes} live nodes failed — "
                f"{detail}\nfirst traceback:\n{tb}")

        per_node = [reports.get(index) or self._down_report(index, state[index])
                    for index in range(config.nodes)]
        supervisor = {
            "killed": sum(s["killed"] for s in state.values()),
            "respawns": sum(s["restarts"] for s in state.values()),
            "down": sum(1 for s in state.values() if s["down"]),
        }
        outcome = self._aggregate(per_node, plan, supervisor)

        # A live run that "passed" while a node's LiveDriver swallowed
        # transition errors is a lie: raise (→ non-zero exit).
        noisy = [(report["address"], report["callback_error_count"],
                  report["callback_errors"])
                 for report in per_node
                 if report.get("callback_error_count")]
        if noisy:
            detail = "; ".join(
                f"node {address}: {count} error(s), first {errors[0]}"
                for address, count, errors in noisy)
            raise LiveClusterError(
                f"live drivers recorded callback exceptions on "
                f"{len(noisy)} node(s) — {detail}")
        return outcome

    # ------------------------------------------------------------- helpers
    def _startup_failure(self, reports: dict) -> LiveClusterError:
        """Name the node(s) that broke the start barrier."""
        # A worker that merely observed the broken barrier is a casualty,
        # not the cause; only errors raised *before* the barrier (port bind,
        # import failure) explain the breakage.  The causing report may
        # still be in flight through the queue feeder when the barrier
        # breaks, so poll briefly before settling for the stuck diagnostic.
        booted_errors: dict[int, dict] = {}
        deadline = time.time() + 2.0
        while True:
            try:
                while True:
                    index, report = self._results.get_nowait()
                    reports[index] = report
            except Empty:
                pass
            booted_errors = {
                index: report for index, report in reports.items()
                if "error" in report
                and "barrier broke" not in report["error"]}
            if booted_errors or time.time() >= deadline:
                break
            time.sleep(0.05)
        if booted_errors:
            detail = "; ".join(
                f"node {report['address']}: {report['error']}"
                for _, report in sorted(booted_errors.items()))
            return LiveClusterError(
                f"live cluster failed to start — {detail}")
        stuck = [index for index in range(self.config.nodes)
                 if not self._ready[index]]
        parts = []
        for index in stuck:
            process = self._state[index]["proc"]
            status = ("alive" if process.is_alive()
                      else f"exit code {process.exitcode}")
            parts.append(f"node {FIRST_ADDRESS + index} "
                         f"(pid {process.pid}, {status})")
        return LiveClusterError(
            f"cluster startup timed out after "
            f"{self.config.startup_timeout:.0f}s: {len(stuck)} node(s) "
            f"never reached the start barrier — {', '.join(parts)}; "
            f"still importing/compiling, or stuck binding a port?")

    def _down_report(self, index: int, node_state: dict) -> dict:
        """Placeholder report for a node that stayed down (budget spent or
        killed with no respawn): zero contribution, visible in the count."""
        return {
            "address": FIRST_ADDRESS + index,
            "state": "down",
            "down": True,
            "incarnation": node_state["incarnation"],
            "epoch": node_state["incarnation"],
            "workload": WorkloadObservations().payload(),
            "events_processed": 0,
            "callback_errors": [],
            "callback_error_count": 0,
            "transport": dict.fromkeys(TRANSPORT_TOTALS, 0),
            "socket": dict.fromkeys(SocketUdpNetwork.STATS, 0),
        }

    # ------------------------------------------------------------ aggregation
    def _aggregate(self, per_node: list[dict], plan: WorkloadPlan,
                   supervisor: dict) -> LiveClusterResult:
        """Pool every process's observation payload and score it with the
        workload model's own formula — the one the simulator uses — then add
        what only a deployment has: process, transport and socket totals,
        and the post-fault ratio."""
        config = self.config
        model = config.workload
        payloads = [report["workload"] for report in per_node]
        metrics: dict[str, float] = {
            f"workload.{key}": value
            for key, value in model.score(plan, payloads).items()}
        # Staleness needs a strictly-before clock, which the per-process
        # store clocks do not give us; the version-space checks (phantom
        # reads, coverage) are sound across processes and stay.
        metrics.pop("workload.stale_reads", None)
        # Every scheduled op nobody is known to have issued: its node was
        # down, not yet re-joined, or died with the record of sending it.
        metrics["workload.skipped"] = model.packets - metrics["workload.sent"]
        metrics.update({
            "nodes.count": float(config.nodes),
            "nodes.joined": float(sum(
                1 for report in per_node
                if report["state"] not in ("init", "down"))),
            "nodes.callback_errors": float(sum(
                report["callback_error_count"] for report in per_node)),
            "sim.events_processed": float(sum(
                report["events_processed"] for report in per_node)),
            "transport.messages_sent": float(sum(
                report["transport"]["messages_sent"] for report in per_node)),
            "transport.retransmissions": float(sum(
                report["transport"]["retransmissions"] for report in per_node)),
            "socket.decode_errors": float(sum(
                report["socket"]["decode_errors"] for report in per_node)),
            "socket.fault_drops": float(sum(
                report["socket"].get("fault_drops", 0)
                for report in per_node)),
            "socket.reassembly_timeouts": float(sum(
                report["socket"].get("reassembly_timeouts", 0)
                for report in per_node)),
        })
        metrics["nodes.killed"] = float(supervisor["killed"])
        metrics["nodes.respawns"] = float(supervisor["respawns"])
        metrics["nodes.down"] = float(supervisor["down"])
        if self._faults:
            recovered_at = (fault_horizon(self._faults)
                            + config.post_fault_settle)
            late = {seqno for payload in payloads
                    for seqno, at in payload["sent"] if at >= recovered_at}
            #: The ratio's sample size: a gate on the ratio alone passes or
            #: fails on a handful of probes without saying so.
            metrics["workload.post_fault_probes"] = float(len(late))
            if late:
                metrics["workload.post_fault_success_ratio"] = \
                    len(model.delivered(payloads) & late) / len(late)
        alive_reports = [report for report in per_node
                         if not report.get("down")]
        rings = [report["ring"] for report in alive_reports
                 if "ring" in report]
        if len(rings) == len(alive_reports) and rings:
            membership = [(ring["my_key"], report["address"])
                          for ring, report in zip(rings, alive_reports)]
            successors = {report["address"]: ring["successor"]
                          for ring, report in zip(rings, alive_reports)}
            metrics["ring.correct_successor_fraction"] = \
                correct_successor_fraction(membership, successors)
        name = f"live-{config.protocol}-{model.kind}"
        obs, obs_snapshot = config.spec.obs, None
        if obs is not None:
            from ..obs import (artifact, base_registry, fill_live,
                               write_obs_snapshot, write_trace_file)
            registry = base_registry()
            hop_records = fill_live(
                registry, per_node, nodes_total=config.nodes,
                nodes_alive=len(alive_reports))
            obs_snapshot = artifact(registry, mode="live", name=name,
                                    seed=config.seed,
                                    duration=config.duration)
            # Each node's samples, regrouped by instant.
            samples: dict[float, list] = {}
            for report in per_node:
                for at, stats in report.pop("wallclock", ()):
                    samples.setdefault(at, []).append(stats)
            obs_snapshot["wallclock"] = [
                {"t": at, "nodes": nodes}
                for at, nodes in sorted(samples.items())]
            if obs.snapshot_path:
                write_obs_snapshot(obs.snapshot_path, obs_snapshot)
            if obs.trace_path:
                write_trace_file(obs.trace_path, hop_records,
                                 meta={"mode": "live", "seed": config.seed})
        result = ScenarioResult(name=name, seed=config.seed,
                                duration=config.duration, metrics=metrics,
                                series={}, events=[], experiment=None,
                                obs=obs_snapshot)
        return LiveClusterResult(result=result, per_node=per_node)
