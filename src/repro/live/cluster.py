"""Multi-process live deployments on localhost.

:class:`LiveCluster` is the live counterpart of the scenario engine's
:class:`~repro.eval.scenario.ScenarioSpec`: it boots N OS processes, each
running one :class:`~repro.runtime.node.MacedonNode` with the *unchanged*
registry-compiled protocol stack on a :class:`~repro.live.driver.LiveDriver`
clock and a :class:`~repro.transport.udp.SocketUdpNetwork` socket, drives a
staggered join wave plus a route, multicast, KV, or pub/sub workload, and
aggregates every
process's observations into the same metric shapes the scenario runner
reports (``workload.success_ratio``, ``workload.latency_*``,
``sim.events_processed``, …) so simulated and live runs of one specification
are directly comparable — the paper's Figure-1 promise.

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
import signal
import socket as socket_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from queue import Empty
from typing import Any, Optional

from ..eval.metrics import (correct_successor_fraction, mean, percentile,
                            phantom_reads, replica_coverage, zipf_cdf)
from ..eval.scenario import ScenarioResult

#: Stream id stamped on workload probes so application traffic of the
#: deployment under test is never miscounted (mirrors the scenario engine's
#: auto-assigned workload streams).
LIVE_WORKLOAD_STREAM = 7001

#: Lowest overlay address; 0 is avoided because the specs treat a zero
#: address as "unset" (``if candidate:`` guards).
_FIRST_ADDRESS = 1


class LiveClusterError(RuntimeError):
    """Raised when a live deployment fails to boot, run, or report."""


@dataclass(frozen=True)
class LiveClusterConfig:
    """One declarative live deployment (the live twin of a ScenarioSpec)."""

    nodes: int = 8
    protocol: str = "chord"
    base_overrides: Optional[dict] = None
    #: Measurement horizon in wall-clock seconds: the workload finishes by
    #: this offset; processes shut down ``drain`` seconds later.
    duration: float = 10.0
    join_spacing: float = 0.15
    #: Seconds between the last join and the first workload packet.
    settle: float = 1.0
    #: Seconds after the workload window for in-flight deliveries to land.
    drain: float = 1.0
    workload: str = "route"           # "route" | "multicast" | "kv" | "pubsub"
    packets: int = 64                 # total probes/sends/ops/publishes
    payload_size: int = 1000
    group: int = 4040                 # multicast group key
    # ---- workload="kv" knobs (mirror WorkloadModel's)
    kv_keys: int = 64
    kv_zipf_s: float = 1.1
    kv_read_fraction: float = 0.7
    kv_replicas: int = 3
    kv_write_quorum: int = 2
    kv_read_quorum: int = 2
    # ---- workload="pubsub" knobs; every node subscribes to every topic
    #      (live fanout sampling would need cross-process agreement).
    topics: int = 4
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
    #: Live fault directives (KillNode / PartitionFault / LinkCut /
    #: DegradeFault), offsets from the barrier-aligned clock zero.
    faults: tuple = ()
    #: How many supervised respawns any one node gets before it is
    #: accounted as permanently down (graceful degradation).
    restart_budget: int = 3
    #: Exponential-backoff schedule for respawning a node that died
    #: *unexpectedly* (a deliberate kill's downtime comes from its
    #: directive): ``min(backoff_cap, backoff_base * 2**restarts)``.
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    #: Recovery window after the last fault transition; probes sent past
    #: ``fault_horizon + post_fault_settle`` score the post-fault ratio.
    post_fault_settle: float = 2.0
    #: Raise (→ non-zero exit) when any node's LiveDriver recorded
    #: callback exceptions — a live run that "passed" while swallowing
    #: transition errors is a lie.
    fail_on_driver_errors: bool = True
    #: Optional :class:`repro.obs.ObsConfig`: attaches the observability
    #: layer — per-node causal wire tracing, mid-run wall-clock stats
    #: polling over the control channel, and a ``repro.obs/1`` snapshot
    #: on the aggregate result.  ``None`` (the default) keeps wire bytes
    #: and the report schema identical to an untraced run.
    obs: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise LiveClusterError("a live cluster needs at least one node")
        if self.workload not in ("route", "multicast", "kv", "pubsub"):
            raise LiveClusterError(
                f"unknown workload {self.workload!r} "
                f"(route, multicast, kv, or pubsub)")
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
        return self.duration + self.drain

    def addresses(self) -> list[int]:
        return [_FIRST_ADDRESS + index for index in range(self.nodes)]

    def endpoints(self) -> dict[int, tuple[str, int]]:
        return {_FIRST_ADDRESS + index: (self.host, self.base_port + index)
                for index in range(self.nodes)}

    def probes_for(self, index: int) -> int:
        """Round-robin split of the workload packets across nodes."""
        if self.workload == "multicast":
            return self.packets if index == 0 else 0
        base, extra = divmod(self.packets, self.nodes)
        return base + (1 if index < extra else 0)

    def seqno_base(self, index: int) -> int:
        """First global sequence number of node *index*'s probes.

        Seqnos are globally unique across the deployment (as in the scenario
        engine, where one counter spans all probes), so the coordinator can
        compute distinct-probes-delivered-anywhere without a seqno collision
        between two senders masking a loss.
        """
        return sum(self.probes_for(i) for i in range(index))


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
    from ..transport.udp import SocketUdpNetwork
    from ..apps.payload import AppPayload
    from .driver import LiveDriver

    address = _FIRST_ADDRESS + index
    bootstrap = _FIRST_ADDRESS
    if incarnation and index == 0 and config.nodes > 1:
        # A reborn bootstrap node must re-join *someone else's* ring; its
        # usual self-bootstrap would found a fresh one-node overlay.
        bootstrap = _FIRST_ADDRESS + 1
    stack = get_registry().load_stack(config.protocol,
                                     dict(config.base_overrides or {}))
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

        # Delivery accounting mirrors the scenario engine's
        # WorkloadObservations: duplicate (this receiver, seqno) pairs are
        # counted separately, never scored, and the coordinator unions the
        # distinct delivered seqnos across nodes for the success ratio.
        sent = 0
        duplicates = 0
        delivered_seqnos: set[int] = set()
        latencies: list[float] = []
        #: (seqno, cluster time) per probe actually sent — the coordinator
        #: scores against the union of these, so probes a dead incarnation
        #: never sent are not charged and post-fault probes are dateable.
        sent_records: list[tuple[int, float]] = []
        kv_app = ps_app = None

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
                    "sent": sent,
                    "delivered": len(delivered_seqnos),
                    "socket": network.stats(),
                }
                network.send_raw(
                    SocketUdpNetwork.control_frame(stats_op, src=address),
                    (reply_to[0], int(reply_to[1])))

            network.set_control_callback(on_control)

        if config.workload in ("route", "multicast"):
            def on_deliver(payload, size, mtype) -> None:
                nonlocal duplicates
                if isinstance(payload, AppPayload) \
                        and payload.stream_id == LIVE_WORKLOAD_STREAM:
                    if payload.seqno in delivered_seqnos:
                        duplicates += 1
                        return
                    delivered_seqnos.add(payload.seqno)
                    latencies.append(time.time() - payload.sent_at)

            node.macedon_register_handlers(deliver=on_deliver)
        elif config.workload == "kv":
            from ..apps.kv import KvStore
            kv_app = KvStore(node, replicas=config.kv_replicas,
                             write_quorum=config.kv_write_quorum,
                             read_quorum=config.kv_read_quorum,
                             op_bytes=config.payload_size,
                             stream_id=LIVE_WORKLOAD_STREAM)
        else:
            from ..apps.pubsub import PubSub
            ps_app = PubSub(node, stream_id=LIVE_WORKLOAD_STREAM)

        # --- join wave (bootstrap at t=0, the rest staggered); a respawn
        #     re-joins almost immediately — its downtime already happened.
        if incarnation == 0:
            join_at = 0.0 if index == 0 else index * config.join_spacing
            driver.schedule_at(join_at, node.macedon_init, bootstrap,
                               label="live-join")
        else:
            driver.schedule(0.05, node.macedon_init, bootstrap,
                            label="live-rejoin")

        # --- workload ------------------------------------------------------
        probes = config.probes_for(index)
        seqno_base = config.seqno_base(index)
        rng = driver.fork_rng(f"live-workload:{address}")
        window = config.duration - config.workload_start

        kv_issued_writes: list[tuple[int, int]] = []

        def send_probe(seqno: int) -> None:
            nonlocal sent
            sent += 1
            sent_records.append((seqno, round(driver.now, 3)))
            payload = AppPayload(seqno=seqno, sent_at=time.time(),
                                 source=address, size=config.payload_size,
                                 stream_id=LIVE_WORKLOAD_STREAM)
            if config.workload == "route":
                target = rng.randrange(node.highest_agent.key_space.size)
                node.macedon_route(target, payload, config.payload_size)
            else:
                node.macedon_multicast(config.group, payload,
                                       config.payload_size)

        if config.workload == "kv":
            # The key working set must be identical on every node, so it
            # comes from a shared-label RNG fork (same seed everywhere);
            # which keys this node's ops hit stays on the per-node stream.
            import bisect
            keys_rng = driver.fork_rng("live-kv-keys")
            key_space = node.highest_agent.key_space
            key_ids = [keys_rng.randrange(key_space.size)
                       for _ in range(config.kv_keys)]
            key_cdf = zipf_cdf(config.kv_keys, config.kv_zipf_s)

            def send_op(seqno: int) -> None:
                nonlocal sent
                sent += 1
                sent_records.append((seqno, round(driver.now, 3)))
                key = key_ids[bisect.bisect_left(key_cdf, rng.random())]
                if rng.random() < config.kv_read_fraction:
                    kv_app.get(key, seqno)
                else:
                    # Versions double as values: the globally unique seqno.
                    kv_issued_writes.append((key, seqno))
                    kv_app.put(key, seqno, seqno)

            send = send_op
        elif config.workload == "pubsub":
            group_setup = max(0.0, config.workload_start - config.settle)
            if incarnation == 0:
                for topic in range(config.topics):
                    if index == 0:
                        driver.schedule_at(group_setup, ps_app.create_topic,
                                           topic, label="live-create-topic")
                    driver.schedule_at(group_setup + 0.2 + 0.01 * index,
                                       ps_app.subscribe, topic,
                                       label="live-subscribe")
            else:
                # The topics already exist; a reborn subscriber re-registers.
                for topic in range(config.topics):
                    driver.schedule(0.4 + 0.01 * topic, ps_app.subscribe,
                                    topic, label="live-resubscribe")

            def send_publish(seqno: int) -> None:
                nonlocal sent
                sent += 1
                sent_records.append((seqno, round(driver.now, 3)))
                ps_app.publish(seqno % config.topics, seqno,
                               size=config.payload_size)

            send = send_publish
        else:
            if config.workload == "multicast":
                group_setup = max(0.0, config.workload_start - config.settle)
                if incarnation == 0 and index == 0:
                    driver.schedule_at(group_setup, node.macedon_create_group,
                                       config.group, label="live-create-group")
                elif incarnation == 0:
                    driver.schedule_at(group_setup + 0.2, node.macedon_join,
                                       config.group, label="live-join-group")
                else:
                    driver.schedule(0.4, node.macedon_join, config.group,
                                    label="live-rejoin-group")
            send = send_probe
        skipped = 0
        if probes:
            gap = window / (probes + 1)
            for offset in range(probes):
                when = config.workload_start + (offset + 1) * gap
                if when <= driver.now + 0.01:
                    # This incarnation was born after the probe's slot; the
                    # dead incarnation may or may not have sent it, but its
                    # record is gone either way — count, don't resend.
                    skipped += 1
                    continue
                driver.schedule_at(when, send, seqno_base + offset,
                                   label="live-probe")

        await driver.run_for(max(0.0, config.total_runtime - driver.now))

        # --- report --------------------------------------------------------
        kv_extra = ps_extra = None
        if config.workload == "kv":
            # A KV "delivery" is one completed client op; seqnos are globally
            # unique, so the per-node completed sets union cleanly upstream.
            for record in kv_app.completed:
                delivered_seqnos.add(record.seqno)
                latencies.append(record.latency)
            kv_app._check_epoch()
            kv_extra = {
                "records": [(record.seqno, 0 if record.kind == "put" else 1,
                             record.key, record.version, record.acks)
                            for record in sorted(kv_app.completed,
                                                 key=lambda r: r.seqno)],
                "issued_writes": kv_issued_writes,
                "store": sorted(kv_app.store.items()),
            }
        elif config.workload == "pubsub":
            duplicates = ps_app.duplicates
            for delivery in ps_app.deliveries:
                delivered_seqnos.add(delivery.seqno)
                latencies.append(delivery.latency)
            ps_extra = {"deliveries": len(ps_app.deliveries)}

        transport_totals = {"messages_sent": 0, "messages_delivered": 0,
                            "segments_sent": 0, "segments_received": 0,
                            "retransmissions": 0, "drops": 0}
        for stats in node.transport_host.stats().values():
            for key in transport_totals:
                transport_totals[key] += getattr(stats, key)
        report: dict[str, Any] = {
            "address": address,
            "state": node.highest_agent.state,
            "incarnation": incarnation,
            "epoch": node.transport_host.epoch,
            "sent": sent,
            "skipped": skipped,
            "sent_records": sent_records,
            "delivered": len(delivered_seqnos),
            "delivered_seqnos": sorted(delivered_seqnos),
            "duplicates": duplicates,
            "latencies": latencies[:1000],
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
        if kv_extra is not None:
            report["kv"] = kv_extra
        if ps_extra is not None:
            report["pubsub"] = ps_extra
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
        from .faults import DegradeFault, KillNode, LinkCut, PartitionFault

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
            elif isinstance(fault, LinkCut):
                pairs = [[_FIRST_ADDRESS + u, _FIRST_ADDRESS + v]
                         for u, v in fault.pairs]
                key = ("cut", tuple(tuple(pair) for pair in pairs))
                push_action(fault.at, "control",
                            (key, {"op": "cut", "pairs": pairs,
                                   "one_way": bool(fault.one_way)}))
                if fault.heal_after is not None:
                    push_action(fault.end, "control",
                                (key, {"op": "heal", "pairs": pairs}))
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
        from ..transport.udp import SocketUdpNetwork
        get_registry().load_stack(config.protocol,
                                  dict(config.base_overrides or {}))

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
                        if op["op"] in ("partition", "cut", "degrade"):
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
                        delay = min(config.backoff_cap,
                                    config.backoff_base
                                    * (2 ** node_state["restarts"]))
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
        outcome = self._aggregate(per_node, supervisor=supervisor,
                                  wall_samples=wall_samples)

        if config.fail_on_driver_errors:
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
            # The directive's downtime, stretched by the capped exponential
            # backoff when this node has already burned restarts.
            delay = min(self.config.backoff_cap,
                        fault.respawn_after * (2 ** node_state["restarts"]))
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
            "sent": 0,
            "skipped": 0,
            "sent_records": [],
            "delivered": 0,
            "delivered_seqnos": [],
            "duplicates": 0,
            "latencies": [],
            "events_processed": 0,
            "callback_errors": [],
            "callback_error_count": 0,
            "transport": {"messages_sent": 0, "messages_delivered": 0,
                          "segments_sent": 0, "segments_received": 0,
                          "retransmissions": 0, "drops": 0},
            "socket": {"frames_sent": 0, "frames_received": 0,
                       "bytes_sent": 0, "bytes_received": 0,
                       "send_drops": 0, "decode_errors": 0,
                       "fault_drops": 0, "fragments_sent": 0,
                       "fragments_received": 0, "reassembly_timeouts": 0,
                       "control_frames": 0},
        }

    # ------------------------------------------------------------ aggregation
    def _aggregate(self, per_node: list[dict],
                   supervisor: Optional[dict] = None,
                   wall_samples: Optional[list] = None) -> LiveClusterResult:
        """Score exactly as the scenario engine's WorkloadObservations does:
        ``deliveries`` counts deduped (receiver, seqno) upcalls, and
        ``success_ratio`` is distinct probes delivered *anywhere* over
        probes *accounted as sent* (the union of surviving incarnations'
        send records — a probe whose sender died before its slot is not a
        loss, it was never sent) — so a live run and a simulated run of one
        spec are read off the same ruler."""
        config = self.config
        sent = sum(report["sent"] for report in per_node)
        deliveries = sum(report["delivered"] for report in per_node)
        delivered_anywhere: set[int] = set()
        accounted: set[int] = set()
        latencies: list[float] = []
        for report in per_node:
            delivered_anywhere.update(report["delivered_seqnos"])
            accounted.update(seqno for seqno, _
                             in report.get("sent_records", ()))
            latencies.extend(report["latencies"])
        if accounted:
            success_ratio = (len(delivered_anywhere & accounted)
                             / len(accounted))
        else:
            success_ratio = len(delivered_anywhere) / sent if sent else 0.0
        metrics: dict[str, float] = {
            "workload.sent": float(sent),
            "workload.skipped": float(sum(
                report.get("skipped", 0) for report in per_node)),
            "workload.deliveries": float(deliveries),
            "workload.duplicates": float(sum(
                report["duplicates"] for report in per_node)),
            "workload.success_ratio": success_ratio,
            "workload.latency_mean": mean(latencies),
            "workload.latency_p95": percentile(latencies, 0.95),
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
        }
        if supervisor is not None:
            metrics["nodes.killed"] = float(supervisor["killed"])
            metrics["nodes.respawns"] = float(supervisor["respawns"])
            metrics["nodes.down"] = float(supervisor["down"])
        if config.faults:
            from .faults import fault_horizon
            recovered_at = (fault_horizon(config.faults)
                            + config.post_fault_settle)
            late = {seqno for report in per_node
                    for seqno, at in report.get("sent_records", ())
                    if at >= recovered_at}
            if late:
                metrics["workload.post_fault_success_ratio"] = \
                    len(delivered_anywhere & late) / len(late)
        if config.workload == "kv":
            # success_ratio already reads as quorum success (distinct
            # completed ops over ops issued); add the consistency metrics
            # that are sound across processes.  Staleness needs a
            # strictly-before clock, which wall clocks across processes do
            # not give us, so live reports the version-space checks only.
            records = []
            issued_writes: set[tuple[int, int]] = set()
            stores = []
            for report in per_node:
                if "kv" not in report:
                    continue   # a down node's store is gone with it
                records.extend(report["kv"]["records"])
                issued_writes.update(
                    (key, version)
                    for key, version in report["kv"]["issued_writes"])
                stores.append(dict(report["kv"]["store"]))
            reads = [(key, version) for _, kind, key, version, _ in records
                     if kind == 1]
            metrics["workload.completed"] = float(len(records))
            metrics["workload.puts"] = float(sum(
                1 for _, kind, *_ in records if kind == 0))
            metrics["workload.gets"] = float(len(reads))
            metrics["workload.quorum_success"] = \
                metrics["workload.success_ratio"]
            metrics["workload.phantom_reads"] = float(
                phantom_reads(reads, issued_writes))
            latest_writes: dict[int, int] = {}
            for key, version in issued_writes:
                latest_writes[key] = max(latest_writes.get(key, -1), version)
            metrics["workload.replica_coverage"] = replica_coverage(
                stores, latest_writes, config.kv_replicas)
        elif config.workload == "pubsub":
            expected = sent * max(config.nodes - 1, 0)
            metrics["workload.expected"] = float(expected)
            metrics["workload.coverage"] = \
                deliveries / expected if expected else 0.0
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
                name=f"live-{config.protocol}-{config.workload}",
                seed=config.seed, duration=config.duration)
            obs_snapshot["wallclock"] = wall_samples or []
            if config.obs.snapshot_path:
                write_obs_snapshot(config.obs.snapshot_path, obs_snapshot)
            if config.obs.trace_path:
                write_trace_file(config.obs.trace_path, hop_records,
                                 meta={"mode": "live",
                                       "seed": config.seed})
        result = ScenarioResult(
            name=f"live-{config.protocol}-{config.workload}",
            seed=config.seed,
            duration=config.duration,
            metrics=metrics,
            series={},
            events=[],
            experiment=None,
            obs=obs_snapshot,
        )
        return LiveClusterResult(result=result, per_node=per_node)
