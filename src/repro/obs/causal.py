"""Causal message tracing: who forwarded what, where, and how long it took.

A *trace* is one request's journey through the overlay: the packet that
starts it gets a fresh trace id at hop 0, and every packet an agent sends
*while handling a traced delivery* inherits the id with the hop count
bumped.  That works without any protocol cooperation because delivery is
synchronous in both runtimes — the simulator calls the agent's transition
inline from the delivery event, and the live node's socket runs the
handler before returning to the event loop — so a process-local "current
trace" context set around the delivery covers every forward.

One class, :class:`CausalLog`, with two carriers.  It hooks the network a
node sends through — :class:`~repro.network.emulator.NetworkEmulator` in
simulation, :class:`~repro.transport.udp.SocketUdpNetwork` live — by the
same two calls, ``install_send_tap(log.tag)`` and
``install_delivery_wrapper(log.wrap_delivery)``.  The trace identity is the
:class:`~repro.network.packet.Packet`'s own ``trace_id`` / ``trace_hop`` /
``created_at``: the emulator carries the packet object itself, the socket
carries the three fields in a ``TRACE`` frame (docs/LIVE.md) and rebuilds
them on the packet it delivers.  Times are spec seconds in both modes: the
simulator's clock, or a live node's
:class:`~repro.live.driver.LiveDriver`, whose zero every process shares.

A hop is a ``route_hop`` record in the process's
:class:`~repro.runtime.tracing.Tracer` (``data``: ``trace_id``, ``hop``,
``src``, ``latency``), which is what makes ``scripts/run_trace.py``
mode-agnostic; :meth:`CausalLog.report` is the process report's
``causal`` section that :func:`repro.obs.probes.fold_snapshot` folds.

Retransmissions and timer-driven sends start fresh traces by design: they
are new causal roots, not forwards.
"""

from __future__ import annotations

from typing import Any, Optional

from ..runtime.tracing import TraceLevel, Tracer


class CausalLog:
    """One process's causal tracer.

    :param tracer: the process's tracer; hop records land there (category
        ``route_hop``) and stream through its sink if attached.
    :param clock: anything with a ``now`` attribute in spec seconds (the
        simulator, a live node's driver).
    :param first_id: trace ids count up from ``first_id + 1``; a live node
        starts its own range so ids are unique across the cluster.
    """

    def __init__(self, tracer: Tracer, clock: Any, *,
                 first_id: int = 0) -> None:
        self._tracer = tracer
        self._clock = clock
        self._next = first_id
        #: The trace being handled right now: ``(trace_id, hop)`` while a
        #: traced delivery is on the stack, else ``None``.
        self.ctx: Optional[tuple[int, int]] = None
        self.traces = 0
        #: Each delivered hop's latency, in delivery order.
        self.hop_latencies: list[float] = []
        #: trace id -> the highest hop delivered here.
        self.max_hop: dict[int, int] = {}

    # ------------------------------------------------------------------ taps
    def tag(self, packet: Any) -> None:
        """Send tap: stamp the packet with its trace identity."""
        ctx = self.ctx
        if ctx is not None:
            packet.trace_id = ctx[0]
            packet.trace_hop = ctx[1] + 1
        else:
            self._next += 1
            packet.trace_id = self._next
            packet.trace_hop = 0
            self.traces += 1
        packet.created_at = self._clock.now

    def wrap_delivery(self, deliver: Any) -> Any:
        """Wrap the network's delivery step: set ctx while it runs and, if it
        handed the packet to its host, record the hop."""
        log = self
        tracer = self._tracer
        clock = self._clock
        latencies = self.hop_latencies
        max_hop = self.max_hop

        def deliver_traced(packet: Any, stage: Any = None) -> bool:
            trace_id = packet.trace_id
            if trace_id is None:
                return deliver(packet, stage)
            hop = packet.trace_hop
            prev = log.ctx
            log.ctx = (trace_id, hop)
            try:
                delivered = deliver(packet, stage)
            finally:
                log.ctx = prev
            if delivered:
                now = clock.now
                latency = now - packet.created_at
                latencies.append(latency)
                if hop > max_hop.get(trace_id, -1):
                    max_hop[trace_id] = hop
                tracer.record(TraceLevel.HIGH, now, packet.dst,
                              packet.protocol, "route_hop",
                              f"trace {trace_id} hop {hop}", trace_id=trace_id,
                              hop=hop, src=packet.src, latency=latency)
            return delivered

        return deliver_traced

    def report(self) -> dict:
        """The process report's ``causal`` section."""
        return {"traces": self.traces, "hops": len(self.hop_latencies),
                "hop_latencies": self.hop_latencies, "max_hop": self.max_hop}
