"""One live node process: boot, run this node's share of the spec, report.

:func:`worker_entry` is what :class:`~repro.live.cluster.LiveCluster` starts
in every process.  The process compiles its registry stack, binds its
socket, waits on the cluster's start barrier (whose action fixes the
cluster's clock zero), draws the spec's schedule as every process does
(:meth:`~repro.eval.scenario.ScenarioSpec.draw`) and binds it as the
simulator does (:func:`~repro.eval.scenario.bind_model`), owning its one
node, with its socket's :class:`~repro.transport.udp.SocketFaults` as the
executor of the partition and degrade rows (a reborn process re-applies
the ones standing at its rebirth, :func:`_resume`).  Its
:class:`~repro.live.driver.LiveDriver` runs the events in spec seconds,
``time_scale`` wall seconds each.  At the end it ships a report
home over the results queue: every model's payload under its label, its
FSM state, transport, network and socket counters, for ring protocols its
ring row (:func:`~repro.eval.metrics.ring_rows`) and, with ``spec.obs``
set, its stats samples, trace counts, causal section and (with a
``trace_path``) its tracer's records.
"""

from __future__ import annotations

import traceback
from dataclasses import replace
from typing import Any, Optional

from ..eval.metrics import ring_rows
from ..eval.scenario import bind_model, model_payloads
from ..transport.udp import FIRST_ADDRESS, SocketUdpNetwork

#: The network-fault verbs a node process runs on its own socket's fault
#: table (:class:`~repro.transport.udp.SocketFaults`), undos included.
NETWORK_VERBS = ("partition", "heal_partition", "degrade_node",
                 "restore_node")

#: The drawn verbs a node process runs: its own node's joins and group
#: rows, and every network-fault row.  Every other drawn verb is a
#: :class:`LiveCluster` fault verb.
NODE_VERBS = ("join_node", "macedon_create_group", "macedon_join") \
    + NETWORK_VERBS

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
    drawn = config.spec.draw()
    network = SocketUdpNetwork(address, config.endpoints(),
                               WireCodec.for_agents(stack))
    await network.open()
    try:
        loop = asyncio.get_running_loop()
        driver = LiveDriver(seed=config.spec.seed,
                            time_scale=config.scale)
        # The ready flag lets the coordinator name the stuck node when the
        # start barrier times out.
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
        # category overrides, plus — when causal tracing is on — the causal
        # log on the socket's send tap and delivery step, on the driver's
        # spec clock.  Installed before the node so agent trace gates see
        # the overrides at construction.  Trace ids are unique per node
        # and incarnation: a reborn node's cannot repeat the ones its dead
        # incarnation left in its peers' reports.
        obs = config.spec.obs
        obs_tracer = causal = None
        if obs is not None:
            from ..obs import CausalLog, build_tracer
            # The records ship home; the coordinator writes the file.
            obs_tracer = build_tracer(replace(obs, trace_path=None))
            if obs.causal:
                causal = CausalLog(obs_tracer, driver, first_id=(
                    (address & 0xFFFFFF) << 40 | (incarnation & 0xFF) << 32))
                network.install_send_tap(causal.tag)
                network.install_delivery_wrapper(causal.wrap_delivery)

        node = MacedonNode(driver, network, stack, tracer=obs_tracer,
                           failure_config=config.spec.failure_config,
                           params=config.spec.params)
        if incarnation:
            # Rebuild through the fail-stop recovery path so the transport
            # subsystem carries the real restart epoch, exactly as a
            # simulated crash/recover does.
            node.crash()
            node.crash_count = incarnation
            node.recover()

        # --- this node's share of the schedule, bound as the simulator binds
        # every node's, the network-fault rows on this socket's fault table;
        # workloads record on the driver clock, whose zero every process
        # shares.
        if incarnation:
            _resume(drawn, driver.now)
        streams: set[int] = set()
        compiled_models = [
            bind_model(entry, network.faults, {index: node}, streams,
                       config.spec.duration, bootstrap=bootstrap)
            for entry in drawn]
        observed = [compiled.observations for compiled in compiled_models
                    if hasattr(compiled, "observations")]

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
                    "sent": sum(seen.sent for seen in observed),
                    "delivered": sum(seen.deliveries for seen in observed),
                    "socket": network.stats(),
                }))

            duration = config.spec.duration
            step = max(1.0, duration / 4.0)
            at = step
            while at < duration:
                if at > driver.now:
                    driver.schedule_at(at, sample, round(at, 3))
                at += step

        for compiled in compiled_models:
            for event in compiled.events:
                driver.schedule_at(event.time, event.apply)

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
            "models": model_payloads(compiled_models),
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
                "records": sum(obs_tracer.counts.values()),
                "dropped": obs_tracer.dropped,
            }
            if obs.trace_path:
                report["trace_records"] = list(obs_tracer)
            if causal is not None:
                report["causal"] = causal.report()
        report["ring"] = ring_rows([node])
        return report
    finally:
        network.close()


def _resume(drawn: list, now: float) -> None:
    """Cut *drawn* to what a reborn process runs at spec time *now*: every
    row and op still ahead, each :data:`REJOIN` verb behind re-entered
    shortly, and each network row whose span covers *now* re-applied at
    once (its undo stays at ``until``).  Any other slot behind belonged to
    the dead incarnation, or has already ended."""
    def resume(at: float, verb: str, until: Optional[float] = None):
        if at > now + 0.01:
            return at
        if verb in REJOIN:
            return now + REJOIN[verb]
        if verb in NETWORK_VERBS and (until is None or until > now):
            return now
        return None

    for entry in drawn:
        if entry.plan is not None:
            entry.plan.ops = [op._replace(time=at) for op in entry.plan.ops
                              if (at := resume(op.time, op.verb)) is not None]
        entry.rows[:] = [row._replace(at=at) for row in entry.rows
                         if (at := resume(row.at, row.verb, row.until))
                         is not None]


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
