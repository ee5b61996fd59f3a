"""Multi-process live deployments on localhost.

:class:`LiveCluster` is the live counterpart of the scenario engine's
:class:`~repro.eval.scenario.ScenarioSpec`: it boots N OS processes, each
running one :class:`~repro.runtime.node.MacedonNode` with the *unchanged*
registry-compiled protocol stack on a :class:`~repro.live.driver.LiveDriver`
clock and a :class:`~repro.transport.udp.SocketUdpNetwork` socket, drives a
staggered join wave plus the node's share of a
:class:`~repro.eval.workload.WorkloadModel` — the same draw, the same
per-node :class:`~repro.eval.workload.NodeWorkload`, the same observation
payload the simulator uses — and the coordinator scores the pooled payloads
with the model's own :meth:`~repro.eval.workload.WorkloadModel.score`, so
simulated and live runs of one specification are read off one ruler — the
paper's Figure-1 promise.

Coordination is deliberately minimal: endpoints are a static address→port
map computed up front, a process barrier aligns the zero of every node's
wall clock, and results come back over a queue.  In the *data* path there is
still no runtime coordinator — once the barrier drops, the only
communication between nodes is protocol traffic over their UDP sockets.  The
coordinator re-enters only as the *fault* plane: when the config carries
:mod:`~repro.live.faults` directives it becomes a supervisor that delivers
real ``SIGKILL``\\ s on schedule, respawns victims under a capped exponential
backoff and a per-node restart budget (the respawned process re-enters
through the transport restart-epoch machinery, resuming the shared cluster
clock mid-timeline), and installs partition/cut/degrade rules into every
node's socket fault table over an out-of-band control channel.  A node that
exhausts its budget is accounted as *down* — graceful degradation, not a
run failure.
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
import traceback
from dataclasses import dataclass, field, replace
from queue import Empty
from typing import Any, Optional

from ..eval.metrics import correct_successor_fraction
from ..eval.scenario import ScenarioError, ScenarioResult
from ..eval.workload import (NodeWorkload, WorkloadModel,
                             WorkloadObservations, WorkloadPlan)
from ..transport.udp import SocketUdpNetwork

#: Stream id stamped on workload probes so application traffic of the
#: deployment under test is never miscounted (mirrors the scenario engine's
#: auto-assigned workload streams).
LIVE_WORKLOAD_STREAM = 7001

#: Lowest overlay address; 0 is avoided because the specs treat a zero
#: address as "unset" (``if candidate:`` guards).
_FIRST_ADDRESS = 1

#: Seconds after the workload window for in-flight deliveries to land before
#: the processes shut down.
DRAIN = 1.0

#: Exponential-backoff schedule for respawning a node that died
#: *unexpectedly*: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**restarts)``.  A
#: deliberate kill waits its directive's downtime plus at most
#: ``BACKOFF_CAP`` of stretch.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 8.0

#: The :class:`~repro.transport.base.TransportStats` counters a node report
#: sums over its transports.
_TRANSPORT_TOTALS = ("messages_sent", "messages_delivered", "segments_sent",
                     "segments_received", "retransmissions", "drops")


class LiveClusterError(RuntimeError):
    """Raised when a live deployment fails to boot, run, or report."""


@dataclass(frozen=True)
class LiveClusterConfig:
    """One declarative live deployment (the live twin of a ScenarioSpec)."""

    nodes: int = 8
    protocol: str = "chord"
    #: Measurement horizon in wall-clock seconds: the workload finishes by
    #: this offset; processes shut down :data:`DRAIN` seconds later.
    duration: float = 10.0
    join_spacing: float = 0.15
    #: Seconds between the last join and the first workload packet.
    settle: float = 1.0
    #: The measurement traffic, whole: every knob means what it means in
    #: simulation.  Only the model's ``start``/``gap`` timeline is replaced,
    #: stretched onto the live workload window (see :meth:`plan`).
    workload: WorkloadModel = WorkloadModel(kind="route", source=-1,
                                            packets=64)
    seed: int = 1
    host: str = "127.0.0.1"
    base_port: int = 47000
    #: Chord's fix-fingers period, applied to any agent exposing the knob
    #: (None leaves the specification default).
    fix_period: Optional[float] = 0.5
    #: multiprocessing start method; None picks "fork" where available
    #: (children inherit the compiled registry) and "spawn" elsewhere.
    start_method: Optional[str] = None
    #: Seconds each process gets to import, compile, and bind its socket.
    startup_timeout: float = 60.0
    # ---- fault plane (see repro.live.faults)
    #: Live fault directives (KillNode / PartitionFault / DegradeFault),
    #: offsets from the barrier-aligned clock zero.
    faults: tuple = ()
    #: How many supervised respawns any one node gets before it is
    #: accounted as permanently down (graceful degradation).
    restart_budget: int = 3
    #: Recovery window after the last fault transition; probes sent past
    #: ``fault_horizon + post_fault_settle`` score the post-fault ratio.
    post_fault_settle: float = 2.0
    #: Optional :class:`repro.obs.ObsConfig`: attaches the observability
    #: layer — per-node causal wire tracing, mid-run wall-clock stats
    #: polling over the control channel, and a ``repro.obs/1`` snapshot
    #: on the aggregate result.  ``None`` (the default) keeps wire bytes
    #: and the report schema identical to an untraced run.
    obs: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise LiveClusterError("a live cluster needs at least one node")
        if not isinstance(self.workload, WorkloadModel):
            raise LiveClusterError(
                f"workload must be a WorkloadModel, not {self.workload!r}")
        try:
            self.workload.validate()
        except ScenarioError as exc:
            raise LiveClusterError(str(exc)) from exc
        if self.workload_start >= self.duration:
            raise LiveClusterError(
                f"duration {self.duration}s leaves no workload window: the "
                f"join wave plus settle takes {self.workload_start:.1f}s "
                f"({self.nodes} nodes x {self.join_spacing}s + "
                f"{self.settle}s); raise --duration or lower --nodes")
        if self.restart_budget < 0:
            raise LiveClusterError("restart_budget cannot be negative")
        for fault in self.faults:
            if fault.at < 0:
                raise LiveClusterError(
                    f"fault scheduled before the cluster starts: {fault}")

    # ------------------------------------------------------------- schedule
    @property
    def workload_start(self) -> float:
        return self.nodes * self.join_spacing + self.settle

    @property
    def total_runtime(self) -> float:
        return self.duration + DRAIN

    def addresses(self) -> list[int]:
        return [_FIRST_ADDRESS + index for index in range(self.nodes)]

    def endpoints(self) -> dict[int, tuple[str, int]]:
        return {_FIRST_ADDRESS + index: (self.host, self.base_port + index)
                for index in range(self.nodes)}

    def plan(self, key_space_size: int) -> WorkloadPlan:
        """The workload's schedule on this deployment's clock.

        Drawn from a seed-only RNG, so every node process and the
        coordinator hold the identical plan without exchanging a byte (which
        node subscribes where, who issues which op).  The model's own
        timeline ``[first op, last op]``, padded by one ``gap`` at each end,
        is stretched onto ``[workload_start, duration]`` — P evenly spaced
        probes land on the ``(k + 1) / (P + 1)`` slots of the window.
        """
        model = self.workload
        plan = model.draw(self.nodes, key_space_size,
                          random.Random(f"{self.seed}:live-workload"),
                          horizon=model.start + model.packets * model.gap)
        times = [op.time for op in plan.ops]
        first = min(times, default=0.0)
        span = max(times, default=0.0) - first + 2 * model.gap
        window = self.duration - self.workload_start
        return replace(plan, window=window, ops=[
            op._replace(time=self.workload_start + window * (
                (op.time - first + model.gap) / span if span else 0.5))
            for op in plan.ops])


@dataclass
class LiveClusterResult:
    """Aggregate result plus the raw per-process reports."""

    result: ScenarioResult
    per_node: list[dict] = field(default_factory=list)

    @property
    def metrics(self) -> dict[str, float]:
        return self.result.metrics


# ------------------------------------------------------------------- worker
def _apply_protocol_knobs(node, config: LiveClusterConfig) -> None:
    if config.fix_period is not None:
        for agent in node.stack:
            if hasattr(agent, "fix_period"):
                setattr(agent, "fix_period", config.fix_period)


async def _node_main(config: LiveClusterConfig, index: int, barrier, *,
                     ready=None, incarnation: int = 0,
                     clock_zero: Optional[float] = None) -> dict:
    """One node process: boot, join, run the workload, report.

    ``incarnation`` 0 is the barrier-aligned cold boot.  A supervisor
    respawn (``incarnation`` > 0) skips the barrier — the cluster is already
    running — and instead resumes the shared cluster clock from
    ``clock_zero``, rebuilding its protocol stack through the node's
    fail-stop recovery path so the transport demux re-keys under the new
    restart epoch (a peer's stale retransmission state cannot poison the
    reborn node, and vice versa).
    """
    # Imports happen here (not at module top) so a "spawn" child pays them
    # once, inside its own interpreter.
    from ..codegen.registry import get_registry
    from ..runtime.node import MacedonNode
    from ..runtime.messages import WireCodec
    from .driver import LiveDriver

    address = _FIRST_ADDRESS + index
    bootstrap = _FIRST_ADDRESS
    if incarnation and index == 0 and config.nodes > 1:
        # A reborn bootstrap node must re-join *someone else's* ring; its
        # usual self-bootstrap would found a fresh one-node overlay.
        bootstrap = _FIRST_ADDRESS + 1
    stack = get_registry().load_stack(config.protocol)
    codec = WireCodec.for_agents(stack)
    network = SocketUdpNetwork(address, config.endpoints(), codec)
    await network.open()
    try:
        import asyncio
        loop = asyncio.get_running_loop()
        driver = LiveDriver(seed=config.seed)
        if incarnation == 0:
            # Every socket must be bound before any node may send: the
            # barrier also aligns the zero of every process's driver clock.
            # The ready flag lets the coordinator name the stuck node when
            # the barrier times out.
            if ready is not None:
                ready[index] = 1
            try:
                await loop.run_in_executor(
                    None, lambda: barrier.wait(config.startup_timeout))
            except Exception as exc:
                raise LiveClusterError(
                    f"node {address}: cluster start barrier broke "
                    f"(a peer failed to boot?): {exc!r}") from exc
            driver.start(loop)
        else:
            driver.start(loop, now=time.time() - clock_zero)

        # Observability (repro.obs): a per-node tracer honouring the run's
        # category overrides, plus — when causal tracing is on — the wire
        # TRACE envelope.  Installed before the node so agent trace gates
        # see the overrides at construction.
        obs_tracer = causal = None
        if config.obs is not None:
            from ..obs import LiveCausalLog
            from ..runtime.tracing import Tracer
            obs_tracer = Tracer(config.obs.max_records,
                                category_levels=config.obs.category_levels,
                                level=config.obs.trace_level)
            if config.obs.causal:
                causal = LiveCausalLog(address)
                network.enable_causal(causal)

        node = MacedonNode(driver, network, stack, tracer=obs_tracer)
        if incarnation:
            # Rebuild through the fail-stop recovery path so the transport
            # subsystem carries the real restart epoch, exactly as a
            # simulated crash/recover does.
            node.crash()
            node.crash_count = incarnation
            node.recover()
        _apply_protocol_knobs(node, config)

        # The node's share of the workload plane: the same per-node class
        # the simulator builds N of, recording into the same observations.
        # Probes are stamped and timed on the wall clock — two processes'
        # driver clocks share no zero finer than the start barrier.
        model = config.workload
        observations = WorkloadObservations()
        share = NodeWorkload(node, model, LIVE_WORKLOAD_STREAM, observations,
                             time.time)

        if config.obs is not None:
            # Answer coordinator stats polls over the control channel while
            # still dispatching every fault op through the default handler —
            # the obs plane must not disable the fault plane.
            def on_control(op: dict) -> None:
                if op.get("op") != "obs-report":
                    network.apply_fault_op(op)
                    return
                reply_to = op.get("reply_to")
                if not reply_to:
                    return
                stats_op = {
                    "op": "obs-stats",
                    "address": address,
                    "events_processed": driver.events_processed,
                    "errors": driver.error_count,
                    "sent": observations.sent,
                    "delivered": observations.deliveries,
                    "socket": network.stats(),
                }
                network.send_raw(
                    SocketUdpNetwork.control_frame(stats_op, src=address),
                    (reply_to[0], int(reply_to[1])))

            network.set_control_callback(on_control)

        # --- join wave (bootstrap at t=0, the rest staggered); a respawn
        #     re-joins almost immediately — its downtime already happened.
        if incarnation == 0:
            join_at = 0.0 if index == 0 else index * config.join_spacing
            driver.schedule_at(join_at, node.macedon_init, bootstrap)
        else:
            driver.schedule(0.05, node.macedon_init, bootstrap)

        # --- workload ------------------------------------------------------
        if model.kind == "multicast":
            group_setup = max(0.0, config.workload_start - config.settle)
            if incarnation:
                driver.schedule(0.4, node.macedon_join, model.group)
            elif index == max(model.source, 0):
                driver.schedule_at(group_setup, node.macedon_create_group,
                                   model.group)
            else:
                driver.schedule_at(group_setup + 0.2, node.macedon_join,
                                   model.group)
        for op in config.plan(stack[0].KEY_SPACE.size).ops:
            if op.node != index:
                continue
            verb = getattr(share, op.verb)
            if op.time > driver.now + 0.01:
                driver.schedule_at(op.time, verb, *op.args)
            elif op.verb == "subscribe":
                # The topics already exist, but this membership died with
                # the old process: a reborn subscriber re-registers.
                driver.schedule(0.4, verb, *op.args)
            # Any other slot this incarnation was born after belonged to
            # the dead one, which may or may not have issued it — its record
            # is gone either way, so the coordinator books it as skipped.

        await driver.run_for(max(0.0, config.total_runtime - driver.now))

        # --- report --------------------------------------------------------
        transport_totals = dict.fromkeys(_TRANSPORT_TOTALS, 0)
        for stats in node.transport_host.stats().values():
            for key in _TRANSPORT_TOTALS:
                transport_totals[key] += getattr(stats, key)
        report: dict[str, Any] = {
            "address": address,
            "state": node.highest_agent.state,
            "incarnation": incarnation,
            "epoch": node.transport_host.epoch,
            "workload": observations.payload(),
            "events_processed": driver.events_processed,
            "callback_errors": [repr(exc) for exc in driver.errors][:5],
            "callback_error_count": driver.error_count,
            "transport": transport_totals,
            "socket": network.stats(),
        }
        if config.obs is not None:
            report["trace"] = {
                "records": sum(node.tracer.counts.values()),
                "dropped": node.tracer.dropped,
            }
            if causal is not None:
                report["causal"] = {"traces": causal.traces,
                                    "hops": causal.hop_count,
                                    "records": causal.hops}
        highest = node.highest_agent
        if hasattr(highest, "successor"):
            report["ring"] = {"my_key": highest.my_key,
                              "successor": highest.successor}
        return report
    finally:
        network.close()


def _worker_entry(config: LiveClusterConfig, index: int, barrier,
                  results, ready=None, incarnation: int = 0,
                  clock_zero: Optional[float] = None) -> None:
    import asyncio
    try:
        report = asyncio.run(_node_main(config, index, barrier, ready=ready,
                                        incarnation=incarnation,
                                        clock_zero=clock_zero))
    except BaseException as exc:   # noqa: BLE001 - ship the failure home
        if barrier is not None:
            try:
                barrier.abort()   # release peers still waiting to start
            except Exception:
                pass
        results.put((index, {"address": _FIRST_ADDRESS + index,
                             "incarnation": incarnation,
                             "error": repr(exc),
                             "traceback": traceback.format_exc()}))
        return
    results.put((index, report))


# -------------------------------------------------------------- coordinator
class LiveCluster:
    """Boot a :class:`LiveClusterConfig` across processes and aggregate."""

    def __init__(self, config: LiveClusterConfig) -> None:
        self.config = config

    def _context(self):
        method = self.config.start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        return multiprocessing.get_context(method)

    # ------------------------------------------------------------ fault plan
    def _compile_actions(self, push_action) -> None:
        """Turn the config's fault directives into timed coordinator actions.

        Kills become ``("kill", directive)``; network directives become
        ``("control", (key, op))`` pairs — *key* identifies the standing rule
        so its heal/restore can retire it from the replay set a respawned
        node receives.
        """
        from .faults import DegradeFault, KillNode, PartitionFault

        for fault in self.config.faults:
            if isinstance(fault, KillNode):
                push_action(fault.at, "kill", fault)
            elif isinstance(fault, PartitionFault):
                groups = [[_FIRST_ADDRESS + i for i in group]
                          for group in fault.groups]
                push_action(fault.at, "control",
                            ("partition", {"op": "partition",
                                           "groups": groups}))
                if fault.heal_after is not None:
                    push_action(fault.end, "control",
                                ("partition", {"op": "heal-partition"}))
            elif isinstance(fault, DegradeFault):
                targets = [_FIRST_ADDRESS + i for i in fault.indices]
                key = ("degrade", tuple(targets))
                push_action(fault.at, "control",
                            (key, {"op": "degrade", "targets": targets,
                                   "delay": fault.delay,
                                   "loss": fault.loss}))
                if fault.restore_after is not None:
                    push_action(fault.end, "control",
                                (key, {"op": "restore", "targets": targets}))
            else:
                raise LiveClusterError(
                    f"unknown live fault directive {fault!r}")

    # ------------------------------------------------------------------- run
    def run(self) -> LiveClusterResult:
        config = self.config
        # Compile the stack up front: it validates the protocol name before
        # any process starts, and fork children inherit the warm registry.
        from ..codegen.registry import get_registry
        stack = get_registry().load_stack(config.protocol)
        plan = config.plan(stack[0].KEY_SPACE.size)

        ctx = self._context()
        supervise = bool(config.faults)
        # The coordinator is the (nodes+1)-th barrier party, so it learns
        # "everyone booted" (and the cluster clock zero) without a report.
        barrier = ctx.Barrier(config.nodes + 1)
        ready = ctx.Array("b", config.nodes)
        results_queue = ctx.Queue()
        endpoints = config.endpoints()

        state: dict[int, dict] = {
            index: {"incarnation": 0, "restarts": 0, "killed": 0,
                    "down": False, "pending_respawn": False, "proc": None}
            for index in range(config.nodes)
        }
        all_processes: list = []

        def spawn(index: int, incarnation: int,
                  clock_zero: Optional[float]) -> None:
            name = f"live-node-{_FIRST_ADDRESS + index}"
            if incarnation:
                name = f"{name}.{incarnation}"
            process = ctx.Process(
                target=_worker_entry,
                args=(config, index,
                      barrier if incarnation == 0 else None,
                      results_queue,
                      ready if incarnation == 0 else None,
                      incarnation, clock_zero),
                name=name, daemon=True)
            process.start()
            all_processes.append(process)
            state[index]["proc"] = process

        actions: list = []
        action_seq = itertools.count()

        def push_action(at: float, kind: str, payload) -> None:
            heapq.heappush(actions, (at, next(action_seq), kind, payload))

        self._compile_actions(push_action)
        #: Standing network-fault rules (key → op), replayed to respawned
        #: nodes whose fresh fault tables would otherwise leak traffic
        #: through an unhealed partition.
        active_ops: dict = {}
        control_socket = socket_module.socket(socket_module.AF_INET,
                                              socket_module.SOCK_DGRAM)
        #: Wall-clock obs samples: [{"t": offset, "nodes": [stats_op, ...]}]
        #: collected by polling every node over the control channel mid-run.
        wall_samples: list[dict] = []
        if config.obs is not None:
            # The control socket doubles as the reply channel for stats
            # polls, so it needs a concrete bound address.
            control_socket.bind((config.host, 0))
            poll_step = max(1.0,
                            (config.duration - config.workload_start) / 4.0)
            poll_at = config.workload_start
            while poll_at < config.duration:
                push_action(poll_at, "obs-poll", None)
                poll_at += poll_step

        def send_control(op: dict, addresses=None) -> None:
            frame = SocketUdpNetwork.control_frame(op)
            for address in (addresses if addresses is not None
                            else list(endpoints)):
                for _ in range(2):   # UDP: fire twice, ops are idempotent
                    try:
                        control_socket.sendto(frame, endpoints[address])
                    except OSError:   # pragma: no cover - endpoint gone
                        pass

        reports: dict[int, dict] = {}

        try:
            for index in range(config.nodes):
                spawn(index, 0, None)
            try:
                barrier.wait(config.startup_timeout)
            except threading.BrokenBarrierError:
                raise self._startup_failure(results_queue, reports, state,
                                            ready) from None
            t0 = time.time()
            deadline = t0 + config.total_runtime + 30.0

            while True:
                now = time.time() - t0
                # 1. fire due fault-plane actions
                while actions and actions[0][0] <= now:
                    _, _, kind, payload = heapq.heappop(actions)
                    if kind == "kill":
                        self._do_kill(payload, state, push_action, now)
                    elif kind == "control":
                        key, op = payload
                        if op["op"] in ("partition", "degrade"):
                            active_ops[key] = op
                        else:
                            active_ops.pop(key, None)
                        send_control(op)
                    elif kind == "respawn":
                        index = payload
                        node_state = state[index]
                        node_state["incarnation"] += 1
                        node_state["restarts"] += 1
                        node_state["pending_respawn"] = False
                        spawn(index, node_state["incarnation"], t0)
                        if active_ops:
                            # The reborn socket needs the standing rules;
                            # send once it is plausibly bound, then again in
                            # case the first volley raced the bind.
                            push_action(now + 0.5, "replay", index)
                            push_action(now + 1.5, "replay", index)
                    elif kind == "replay":
                        for op in list(active_ops.values()):
                            send_control(op, [_FIRST_ADDRESS + payload])
                    elif kind == "obs-poll":
                        reply_to = list(control_socket.getsockname())
                        send_control({"op": "obs-report",
                                      "reply_to": reply_to})
                        replies: dict[int, dict] = {}
                        control_socket.settimeout(0.25)
                        try:
                            while len(replies) < config.nodes:
                                try:
                                    data, _addr = control_socket.recvfrom(
                                        65535)
                                except socket_module.timeout:
                                    break
                                stats_op = \
                                    SocketUdpNetwork.parse_control_frame(data)
                                if (stats_op is None or
                                        stats_op.get("op") != "obs-stats"):
                                    continue
                                # send_control fires twice; dedupe replies.
                                replies[stats_op["address"]] = stats_op
                        finally:
                            control_socket.settimeout(None)
                        wall_samples.append({
                            "t": round(time.time() - t0, 3),
                            "nodes": [replies[key]
                                      for key in sorted(replies)],
                        })

                expected = [i for i in range(config.nodes)
                            if not state[i]["down"]]
                if (all(i in reports for i in expected)
                        and not any(kind in ("kill", "respawn")
                                    for _, _, kind, _ in actions)):
                    # Leftover control actions (a heal scheduled past the
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
                        push_action(now + delay, "respawn", index)
                    else:
                        node_state["down"] = True
        finally:
            control_socket.close()
            # Orphan cleanup covers every process ever started, including
            # respawned incarnations: join, then escalate to terminate and
            # finally kill — a coordinator exit must leave no node behind.
            for process in all_processes:
                process.join(timeout=10.0)
            for process in all_processes:
                if process.is_alive():   # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5.0)
            for process in all_processes:
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
        outcome = self._aggregate(per_node, plan, supervisor=supervisor,
                                  wall_samples=wall_samples)

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

    # --------------------------------------------------------- fault helpers
    def _do_kill(self, fault, state: dict, push_action, now: float) -> None:
        node_state = state[fault.index]
        if node_state["down"] or node_state["pending_respawn"]:
            return   # already dead; a second kill is a no-op
        process = node_state["proc"]
        if process is not None and process.is_alive():
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:   # pragma: no cover - exit race
                pass
            process.join(5.0)
        node_state["killed"] += 1
        if (fault.respawn_after is not None
                and node_state["restarts"] < self.config.restart_budget):
            node_state["pending_respawn"] = True
            # The directive's downtime, stretched by an exponential backoff
            # when this node has already burned restarts.  The cap bounds
            # the stretch only: the directive's own downtime never shrinks.
            stretch = fault.respawn_after * (2 ** node_state["restarts"] - 1)
            delay = fault.respawn_after + min(BACKOFF_CAP, stretch)
            push_action(now + delay, "respawn", fault.index)
        else:
            node_state["down"] = True

    def _startup_failure(self, results_queue, reports: dict, state: dict,
                         ready) -> LiveClusterError:
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
                    index, report = results_queue.get_nowait()
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
                 if not ready[index]]
        parts = []
        for index in stuck:
            process = state[index]["proc"]
            status = ("alive" if process.is_alive()
                      else f"exit code {process.exitcode}")
            parts.append(f"node {_FIRST_ADDRESS + index} "
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
            "address": _FIRST_ADDRESS + index,
            "state": "down",
            "down": True,
            "incarnation": node_state["incarnation"],
            "epoch": node_state["incarnation"],
            "workload": WorkloadObservations().payload(),
            "events_processed": 0,
            "callback_errors": [],
            "callback_error_count": 0,
            "transport": dict.fromkeys(_TRANSPORT_TOTALS, 0),
            "socket": dict.fromkeys(SocketUdpNetwork.STATS, 0),
        }

    # ------------------------------------------------------------ aggregation
    def _aggregate(self, per_node: list[dict], plan: WorkloadPlan,
                   supervisor: Optional[dict] = None,
                   wall_samples: Optional[list] = None) -> LiveClusterResult:
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
        if supervisor is not None:
            metrics["nodes.killed"] = float(supervisor["killed"])
            metrics["nodes.respawns"] = float(supervisor["respawns"])
            metrics["nodes.down"] = float(supervisor["down"])
        if config.faults:
            from .faults import fault_horizon
            recovered_at = (fault_horizon(config.faults)
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
        obs_snapshot = None
        if config.obs is not None:
            from ..obs import (artifact, base_registry, fill_live,
                               write_obs_snapshot, write_trace_file)
            registry = base_registry()
            hop_records = fill_live(
                registry, per_node, nodes_total=config.nodes,
                nodes_alive=len(alive_reports))
            obs_snapshot = artifact(
                registry, mode="live",
                name=f"live-{config.protocol}-{model.kind}",
                seed=config.seed, duration=config.duration)
            obs_snapshot["wallclock"] = wall_samples or []
            if config.obs.snapshot_path:
                write_obs_snapshot(config.obs.snapshot_path, obs_snapshot)
            if config.obs.trace_path:
                write_trace_file(config.obs.trace_path, hop_records,
                                 meta={"mode": "live",
                                       "seed": config.seed})
        result = ScenarioResult(
            name=f"live-{config.protocol}-{model.kind}",
            seed=config.seed,
            duration=config.duration,
            metrics=metrics,
            series={},
            events=[],
            experiment=None,
            obs=obs_snapshot,
        )
        return LiveClusterResult(result=result, per_node=per_node)
