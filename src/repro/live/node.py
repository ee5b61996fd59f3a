"""One live node process: boot, run this node's share of the spec, report.

:func:`worker_entry` is what :class:`~repro.live.cluster.LiveCluster` starts
in every process.  The process compiles its registry stack, binds its
socket, waits on the cluster's start barrier (whose action fixes the
cluster's clock zero) and draws the spec's schedule
(:meth:`~repro.live.cluster.LiveClusterConfig.draw`), the same draw every
other process and the coordinator hold.  It schedules its own node's share
in spec seconds on its :class:`~repro.live.driver.LiveDriver`, which runs
them ``time_scale`` wall seconds each: the join and group rows naming
its index on the :class:`~repro.runtime.node.MacedonNode`, and each
workload's ops naming its index on the
:class:`~repro.eval.workload.NodeWorkload` it builds for it — the class the
simulator builds one of per node.  At the end it ships a report home over
the results queue: one payload per observing model under the model's label
(a workload's observations, a group model's join count), its FSM state,
transport, network and socket counters and, for ring protocols, its ring row
(:func:`~repro.eval.metrics.ring_rows`).
"""

from __future__ import annotations

import traceback
from functools import partial
from typing import Any

from ..eval.metrics import ring_rows
from ..eval.scenario import GroupModel
from ..eval.workload import NodeWorkload, WorkloadObservations
from ..transport.udp import SocketUdpNetwork

#: Lowest overlay address; 0 is avoided because the specs treat a zero
#: address as "unset" (``if candidate:`` guards).
FIRST_ADDRESS = 1

#: The drawn verbs a node process runs on its own node: its joins and its
#: group rows.  Every other drawn verb is a :class:`LiveCluster` fault verb.
NODE_VERBS = ("join_node", "macedon_create_group", "macedon_join")

#: Spec seconds after a respawn at which a reborn process re-enters what its
#: dead incarnation had joined: the overlay, then its groups and topics.  Any
#: other slot it was born after belonged to the dead incarnation, which may
#: or may not have run it; its record is gone either way, so the coordinator
#: books a missed op as skipped.
REJOIN = {"join_node": 0.05, "macedon_join": 0.4, "subscribe": 0.4}

#: The :class:`~repro.transport.base.TransportStats` counters a node report
#: sums over its transports.
TRANSPORT_TOTALS = ("messages_sent", "messages_delivered", "segments_sent",
                    "segments_received", "retransmissions", "drops")


async def node_main(config, index: int, barrier, ready, zero, *,
                    incarnation: int = 0) -> dict:
    """Run node *index* of ``config.spec`` and return its report.

    ``incarnation`` 0 is the barrier-aligned cold boot.  A supervisor
    respawn (``incarnation`` > 0) skips the barrier — the cluster is already
    running — and resumes the cluster clock from the shared ``zero``,
    rebuilding its protocol stack through the node's fail-stop recovery
    path so the transport demux re-keys under the new restart epoch (a
    peer's stale retransmission state cannot poison the reborn node, and
    vice versa).  Either raises its ``ready`` flag once its socket is bound.
    """
    # Imports happen here (not at module top) so a "spawn" child pays them
    # once, inside its own interpreter.
    import asyncio

    from ..runtime.messages import WireCodec
    from ..runtime.node import MacedonNode
    from .cluster import LiveClusterError
    from .driver import LiveDriver

    address = FIRST_ADDRESS + index
    bootstrap = FIRST_ADDRESS
    if incarnation and index == 0 and config.spec.num_nodes > 1:
        # A reborn bootstrap node must re-join *someone else's* ring; its
        # usual self-bootstrap would found a fresh one-node overlay.
        bootstrap = FIRST_ADDRESS + 1
    stack = config.spec.resolve_agents()
    drawn = config.draw()
    network = SocketUdpNetwork(address, config.endpoints(),
                               WireCodec.for_agents(stack))
    await network.open()
    try:
        loop = asyncio.get_running_loop()
        driver = LiveDriver(seed=config.spec.seed,
                            time_scale=config.scale)
        # The ready flag lets the coordinator name the stuck node when the
        # start barrier times out, and replay the standing fault rules to a
        # reborn socket.
        ready[index] = 1
        if incarnation == 0:
            # Every socket must be bound before any node may send.
            try:
                await loop.run_in_executor(
                    None, lambda: barrier.wait(config.startup_timeout))
            except Exception as exc:
                raise LiveClusterError(
                    f"node {address}: cluster start barrier broke "
                    f"(a peer failed to boot?): {exc!r}") from exc
        driver.start(loop, zero=zero.value)

        # Observability (repro.obs): a per-node tracer honouring the run's
        # category overrides, plus — when causal tracing is on — the wire
        # TRACE envelope.  Installed before the node so agent trace gates
        # see the overrides at construction.
        obs = config.spec.obs
        obs_tracer = causal = None
        if obs is not None:
            from ..obs import LiveCausalLog
            from ..runtime.tracing import Tracer
            obs_tracer = Tracer(obs.max_records,
                                category_levels=obs.category_levels,
                                level=obs.trace_level)
            if obs.causal:
                causal = LiveCausalLog(address)
                network.enable_causal(causal)

        node = MacedonNode(driver, network, stack, tracer=obs_tracer,
                           failure_config=config.spec.failure_config)
        if incarnation:
            # Rebuild through the fail-stop recovery path so the transport
            # subsystem carries the real restart epoch, exactly as a
            # simulated crash/recover does.
            node.crash()
            node.crash_count = incarnation
            node.recover()

        # --- this node's share of the drawn schedule and of what the models
        # observe.  A workload's share is the same per-node class the
        # simulator builds N of, recording into the same observations on
        # the driver clock, whose zero every process shares.  A group model
        # counts the joins its rows ran here.
        observed: dict[str, WorkloadObservations] = {}
        joined: dict[str, int] = {}
        streams: set[int] = set()
        mine = []

        def run_row(label, row) -> None:
            if row.verb == "join_node":
                node.macedon_init(bootstrap)
            elif node.alive and node.initialized:   # as GroupModel's rows
                getattr(node, row.verb)(*row.args)
                if label in joined:
                    joined[label] += row.verb == "macedon_join"

        for label, model, plan, rows, _metrics in drawn:
            if plan is not None:
                observed[label] = WorkloadObservations()
                share = NodeWorkload(node, model, model.claim_stream(streams),
                                     observed[label])
                mine += [(op.time, op.verb,
                          partial(getattr(share, op.verb), *op.args))
                         for op in plan.ops if op.node == index]
                continue
            if isinstance(model, GroupModel):
                joined[label] = 0
            mine += [(row.at, row.verb, partial(run_row, label, row))
                     for row in rows
                     if row.node == index and row.verb in NODE_VERBS]

        # Stats every quarter of the run (at least 1 spec-s apart), shipped
        # home in the report: nothing travels mid-run, and the samples of a
        # killed incarnation die with it.
        wallclock: list = []
        if obs is not None:
            def sample(at: float) -> None:
                wallclock.append((at, {
                    "address": address,
                    "events_processed": driver.events_processed,
                    "errors": driver.error_count,
                    "sent": sum(seen.sent for seen in observed.values()),
                    "delivered": sum(seen.deliveries
                                     for seen in observed.values()),
                    "socket": network.stats(),
                }))

            duration = config.spec.duration
            step = max(1.0, duration / 4.0)
            at = step
            while at < duration:
                if at > driver.now:
                    driver.schedule_at(at, sample, round(at, 3))
                at += step

        for at, verb, call in mine:
            if not incarnation or at > driver.now + 0.01:
                driver.schedule_at(at, call)
            elif verb in REJOIN:
                driver.schedule(REJOIN[verb], call)

        await driver.run_for(config.spec.duration - driver.now)

        # --- report --------------------------------------------------------
        transport_totals = dict.fromkeys(TRANSPORT_TOTALS, 0)
        for stats in node.transport_host.stats().values():
            for key in TRANSPORT_TOTALS:
                transport_totals[key] += getattr(stats, key)
        socket_stats = network.stats()
        report: dict[str, Any] = {
            "address": address,
            "state": node.highest_agent.state,
            "incarnation": incarnation,
            "epoch": node.transport_host.epoch,
            "models": {**joined, **{label: seen.payload()
                                    for label, seen in observed.items()}},
            "events_processed": driver.events_processed,
            "callback_errors": [repr(exc) for exc in driver.errors][:5],
            "callback_error_count": driver.error_count,
            "transport": transport_totals,
            "net": {"packets_sent": socket_stats["frames_sent"],
                    "packets_delivered": socket_stats["frames_received"],
                    "packets_dropped": socket_stats["send_drops"]
                    + socket_stats["fault_drops"],
                    "bytes_delivered": socket_stats["bytes_received"]},
            "socket": socket_stats,
        }
        if obs is not None:
            report["wallclock"] = wallclock
            report["trace"] = {
                "records": sum(node.tracer.counts.values()),
                "dropped": node.tracer.dropped,
            }
            if causal is not None:
                report["causal"] = {"traces": causal.traces,
                                    "hops": causal.hop_count,
                                    "records": causal.hops}
        report["ring"] = ring_rows([node])
        return report
    finally:
        network.close()


def worker_entry(config, index: int, barrier, results, ready, zero,
                 incarnation: int = 0) -> None:
    """Process target: run :func:`node_main` and put its report (or the
    failure) on *results*."""
    import asyncio
    try:
        report = asyncio.run(node_main(config, index, barrier, ready, zero,
                                       incarnation=incarnation))
    except BaseException as exc:   # noqa: BLE001 - ship the failure home
        if barrier is not None:
            try:
                barrier.abort()   # release peers still waiting to start
            except Exception:
                pass
        results.put((index, {"address": FIRST_ADDRESS + index,
                             "incarnation": incarnation,
                             "error": repr(exc),
                             "traceback": traceback.format_exc()}))
        return
    results.put((index, report))
