"""Causal message tracing: who forwarded what, where, and how long it took.

A *trace* is one request's journey through the overlay: the packet that
starts it gets a fresh trace id at hop 0, and every packet an agent sends
*while handling a traced delivery* inherits the id with the hop count
bumped.  That works without any protocol cooperation because delivery is
synchronous in both runtimes — the simulator calls the agent's transition
inline from the delivery event, and the live node's transport upcall runs
the handler before returning to the event loop — so a thread/process-local
"current trace" context set around the delivery covers every forward.

Two implementations of the same idea:

* :class:`CausalLog` (sim) — tags :class:`~repro.network.packet.Packet`
  objects via the emulator's send tap and wraps its delivery callback; the
  trace fields are ``__slots__`` on the packet and ids count from 1.
* :class:`LiveCausalLog` (live) — ids are minted per node
  (``address << 40``), and the id/hop/send-timestamp triple rides a
  ``TRACE`` wire frame wrapped around the original frame (see
  :class:`~repro.transport.udp.SocketUdpNetwork`).  Frames are untouched
  when tracing is off.

Both emit ``route_hop`` records with identical ``data`` keys
(``trace_id``, ``hop``, ``src``, ``latency``), which is what makes
``scripts/run_trace.py`` mode-agnostic.

Retransmissions and timer-driven sends start fresh traces by design: they
are new causal roots, not forwards.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from ..runtime.tracing import TraceLevel, Tracer


class CausalLog:
    """Simulation-side causal tracer.

    :param tracer: the experiment's shared tracer; hop records land there
        (category ``route_hop``) and stream through its sink if attached.
    :param clock: anything with a ``now`` attribute (the simulator).
    :param registry: optional metrics registry; ``causal.*`` instruments
        are updated live when present.
    """

    def __init__(self, tracer: Tracer, clock: Any, *,
                 registry: Optional[Any] = None) -> None:
        self._tracer = tracer
        self._clock = clock
        self._next = 0
        #: The trace being handled right now: ``(trace_id, hop)`` while a
        #: traced delivery is on the stack, else ``None``.
        self.ctx: Optional[tuple[int, int]] = None
        self.traces = 0
        self.hop_count = 0
        self._max_hop: dict[int, int] = {}
        if registry is not None:
            self._c_traces = registry.counter("causal.traces")
            self._c_hops = registry.counter("causal.hops")
            self._h_hop_latency = registry.histogram("causal.hop_latency")
        else:
            self._c_traces = self._c_hops = self._h_hop_latency = None

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
            if self._c_traces is not None:
                self._c_traces.inc()

    def wrap_delivery(self, deliver: Any) -> Any:
        """Wrap the emulator's packet-event callback: set ctx while it runs
        and, if the event handed the packet to its host, record the hop."""
        log = self
        tracer = self._tracer
        clock = self._clock
        max_hop = self._max_hop

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
                log.hop_count += 1
                if log._c_hops is not None:
                    log._c_hops.inc()
                    log._h_hop_latency.observe(latency)
                if hop > max_hop.get(trace_id, -1):
                    max_hop[trace_id] = hop
                tracer.record(TraceLevel.HIGH, now, packet.dst,
                              packet.protocol, "route_hop",
                              f"trace {trace_id} hop {hop}", trace_id=trace_id,
                              hop=hop, src=packet.src, latency=latency)
            return delivered

        return deliver_traced

    def finish(self, registry: Any) -> None:
        """Flush end-of-run aggregates (route-length histogram)."""
        route_hops = registry.histogram("causal.route_hops")
        for hop in self._max_hop.values():
            route_hops.observe(hop + 1)


class LiveCausalLog:
    """Live-node causal tracer, driven by the socket transport.

    Hop records are collected locally (bounded) and shipped home in the
    node's result report; the coordinator merges them into one
    ``repro.trace/1`` file.
    """

    #: Per-node bound on retained hop records — a report travels through a
    #: multiprocessing queue, so it must stay modest.  ``hop_count`` keeps
    #: the true total.
    MAX_HOP_RECORDS = 5000

    def __init__(self, address: int,
                 max_hop_records: int = MAX_HOP_RECORDS) -> None:
        self._base = (address & 0xFFFFFF) << 40
        self._next = 0
        self._max = max_hop_records
        self.ctx: Optional[tuple[int, int]] = None
        self.traces = 0
        self.hop_count = 0
        self.hops: list[dict] = []

    def new_trace(self) -> int:
        self._next += 1
        self.traces += 1
        return self._base | self._next

    def on_hop(self, trace_id: int, hop: int, src: int, sent_at: float,
               node: int) -> None:
        now = time.time()
        self.hop_count += 1
        if len(self.hops) < self._max:
            self.hops.append({
                "t": now, "node": node, "proto": "live", "cat": "route_hop",
                "detail": f"trace {trace_id} hop {hop}",
                # Same-machine wall clocks; clamp the microsecond races.
                "data": {"trace_id": trace_id, "hop": hop, "src": src,
                         "latency": max(0.0, now - sent_at)},
            })
