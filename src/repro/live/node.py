"""One live node process: boot, run this node's share of the spec, report.

:func:`worker_entry` is what :class:`~repro.live.cluster.LiveCluster` starts
in every process.  The process compiles its registry stack, binds its
socket, waits on the cluster's start barrier (which aligns every node's clock
zero) and draws the spec's schedule
(:meth:`~repro.live.cluster.LiveClusterConfig.draw`), the same draw every
other process and the coordinator hold.  It schedules its own node's share
on its :class:`~repro.live.driver.LiveDriver`: the join and group rows naming
its index on the :class:`~repro.runtime.node.MacedonNode`, and the workload
ops naming its index on the one :class:`~repro.eval.workload.NodeWorkload`
it builds — the class the simulator builds one of per node.  At the end it
ships a report home over the results queue: its observation payload, FSM
state, transport and socket counters and, for ring protocols, its successor.
"""

from __future__ import annotations

import time
import traceback
from functools import partial
from typing import Any, Optional

from ..eval.workload import NodeWorkload, WorkloadObservations
from ..transport.udp import SocketUdpNetwork

#: Stream id stamped on workload probes so application traffic of the
#: deployment under test is never miscounted (mirrors the scenario engine's
#: auto-assigned workload streams).
LIVE_WORKLOAD_STREAM = 7001

#: Lowest overlay address; 0 is avoided because the specs treat a zero
#: address as "unset" (``if candidate:`` guards).
FIRST_ADDRESS = 1

#: Fix-fingers period set on any live agent exposing the knob: a live run
#: lasts seconds, so fingers are repaired twice as often as Chord's 1 s
#: specification default.
FIX_PERIOD = 0.5

#: The drawn verbs a node process runs on its own node: its joins and its
#: group rows.  Every other drawn verb is a :class:`LiveCluster` fault verb.
NODE_VERBS = ("join_node", "macedon_create_group", "macedon_join")

#: Seconds after a respawn at which a reborn process re-enters what its dead
#: incarnation had joined: the overlay, then its groups and topics.  Any
#: other slot it was born after belonged to the dead incarnation, which may
#: or may not have run it; its record is gone either way, so the coordinator
#: books a missed op as skipped.
REJOIN = {"join_node": 0.05, "macedon_join": 0.4, "subscribe": 0.4}

#: The :class:`~repro.transport.base.TransportStats` counters a node report
#: sums over its transports.
TRANSPORT_TOTALS = ("messages_sent", "messages_delivered", "segments_sent",
                    "segments_received", "retransmissions", "drops")


async def node_main(config, index: int, barrier, *, ready=None,
                    incarnation: int = 0,
                    clock_zero: Optional[float] = None) -> dict:
    """Run node *index* of ``config.spec`` and return its report.

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
    import asyncio

    from ..runtime.messages import WireCodec
    from ..runtime.node import MacedonNode
    from .cluster import LiveClusterError
    from .driver import LiveDriver

    address = FIRST_ADDRESS + index
    bootstrap = FIRST_ADDRESS
    if incarnation and index == 0 and config.nodes > 1:
        # A reborn bootstrap node must re-join *someone else's* ring; its
        # usual self-bootstrap would found a fresh one-node overlay.
        bootstrap = FIRST_ADDRESS + 1
    stack = config.spec.resolve_agents()
    plan, rows = config.draw()
    network = SocketUdpNetwork(address, config.endpoints(),
                               WireCodec.for_agents(stack))
    await network.open()
    try:
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

        node = MacedonNode(driver, network, stack, tracer=obs_tracer)
        if incarnation:
            # Rebuild through the fail-stop recovery path so the transport
            # subsystem carries the real restart epoch, exactly as a
            # simulated crash/recover does.
            node.crash()
            node.crash_count = incarnation
            node.recover()
        for agent in node.stack:
            if hasattr(agent, "fix_period"):
                agent.fix_period = FIX_PERIOD

        # The node's share of the workload plane: the same per-node class
        # the simulator builds N of, recording into the same observations.
        # Probes are stamped and timed on the wall clock — two processes'
        # driver clocks share no zero finer than the start barrier.
        observations = WorkloadObservations()
        share = NodeWorkload(node, config.workload, LIVE_WORKLOAD_STREAM,
                             observations, time.time)

        # Wall-clock stats every quarter of the run (at least 1 s apart),
        # shipped home in the report: nothing travels mid-run, and the
        # samples of a killed incarnation die with it.
        wallclock: list = []
        if obs is not None:
            def sample(at: float) -> None:
                wallclock.append((at, {
                    "address": address,
                    "events_processed": driver.events_processed,
                    "errors": driver.error_count,
                    "sent": observations.sent,
                    "delivered": observations.deliveries,
                    "socket": network.stats(),
                }))

            step = max(1.0, config.duration / 4.0)
            at = step
            while at < config.duration:
                if at > driver.now:
                    driver.schedule_at(at, sample, round(at, 3))
                at += step

        # --- this node's share of the drawn schedule, on the wall clock.
        def run_row(row) -> None:
            if row.verb == "join_node":
                node.macedon_init(bootstrap)
            elif node.alive and node.initialized:   # as GroupModel's rows
                getattr(node, row.verb)(*row.args)

        mine = [(row.at, row.verb, partial(run_row, row)) for row in rows
                if row.node == index and row.verb in NODE_VERBS]
        mine += [(op.time, op.verb, partial(getattr(share, op.verb), *op.args))
                 for op in plan.ops if op.node == index]
        for at, verb, call in mine:
            if not incarnation or at > driver.now + 0.01:
                driver.schedule_at(at, call)
            elif verb in REJOIN:
                driver.schedule(REJOIN[verb], call)

        await driver.run_for(max(0.0, config.total_runtime - driver.now))

        # --- report --------------------------------------------------------
        transport_totals = dict.fromkeys(TRANSPORT_TOTALS, 0)
        for stats in node.transport_host.stats().values():
            for key in TRANSPORT_TOTALS:
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
        highest = node.highest_agent
        if hasattr(highest, "successor"):
            report["ring"] = {"my_key": highest.my_key,
                              "successor": highest.successor}
        return report
    finally:
        network.close()


def worker_entry(config, index: int, barrier, results, ready=None,
                 incarnation: int = 0,
                 clock_zero: Optional[float] = None) -> None:
    """Process target: run :func:`node_main` and put its report (or the
    failure) on *results*."""
    import asyncio
    try:
        report = asyncio.run(node_main(config, index, barrier, ready=ready,
                                       incarnation=incarnation,
                                       clock_zero=clock_zero))
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
