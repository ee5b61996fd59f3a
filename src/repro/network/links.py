"""Per-link state for the packet-level emulator.

A directed link is what ModelNet calls a pipe and the ns lineage a queue
object plus a delay object: a transmitter that serves one packet at a time
at ``bandwidth`` bytes per second behind a FIFO drop-tail queue, followed by
``latency`` seconds of propagation.  A packet that reaches the link pays

* **queueing delay** — the wait until the transmitter is free;
* **transmission delay** — ``wire_size / bandwidth``;
* **propagation delay** — ``latency``;

and is **dropped** when its wait would exceed ``max_queue_delay`` seconds of
backlog.  The whole queue is one number, :attr:`DirectedLink.next_free` (the
instant the transmitter finishes what it has accepted), and one method,
:meth:`DirectedLink.enqueue`, is the only code that moves it.  The emulator
calls that method **in the order packets reach the link**: for the sender's
uplink inside ``send`` (the packet is there *now*), for every other queue
inside the simulator event of the packet standing at that link.  A queue is
never advanced with the arrival time of a packet that is still upstream —
see :mod:`repro.network.emulator` for which links queue at all.

Traffic counters (``packets`` / ``bytes`` / ``overlay_payloads``) are not
touched per hop: the emulator counts per route plan and folds the plan into
its links when somebody reads them (``NetworkEmulator.link_stats``) or the
router retires the plan.  ``drops`` is counted here, where the drop happens.

Fault injection flips :attr:`DirectedLink.enabled` (cuts; enforced by the
router, which plans around disabled edges, and by ``send`` for one-directional
blackholes) or scales the service rate (:meth:`DirectedLink.degrade`; the
emulator has the router rebuild every plan that crosses the edge, so the
constants a plan caches are never stale).  Packets already on the wire when a
fault lands still arrive: bits in flight are not recalled.
"""

from __future__ import annotations


class DirectedLink:
    """One direction of an edge in the topology."""

    __slots__ = ("src", "dst", "latency", "bandwidth", "max_queue_delay",
                 "next_free", "packets", "bytes", "drops", "overlay_payloads",
                 "enabled", "base_latency", "base_bandwidth", "min_bandwidth")

    def __init__(self, src: int, dst: int, latency: float, bandwidth: float,
                 max_queue_delay: float = 0.5, next_free: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.latency = latency
        self.bandwidth = bandwidth
        #: Undegraded values, kept so :meth:`restore` undoes any number of
        #: stacked :meth:`degrade` calls exactly.
        self.base_latency = latency
        self.base_bandwidth = bandwidth
        #: Slowest rate the link has ever had (see :attr:`queue_bytes`).
        self.min_bandwidth = bandwidth
        #: Maximum queueing delay (seconds of backlog) before drop-tail loss.
        self.max_queue_delay = max_queue_delay
        #: Simulated time at which the transmitter becomes free.
        self.next_free = next_free
        # Traffic routed over this link, as of the last fold of the plans
        # that cross it (read through ``NetworkEmulator.link_stats``).
        self.packets = 0
        self.bytes = 0
        self.overlay_payloads: dict[str, int] = {}
        #: Packets this link's queue refused (counted when it happens).
        self.drops = 0
        #: Fault-injection state.  Enforced at the routing layer (disabled
        #: edges never appear in a route plan), recorded here so link views
        #: and scenario assertions can observe which links are cut.
        self.enabled = True

    def enqueue(self, arrival: float, transmission: float) -> float:
        """Queue a packet that reached this link at *arrival* and takes
        *transmission* seconds to serialise; return its queueing wait, or a
        negative value (and count the drop) when the backlog ahead of it
        exceeds ``max_queue_delay``.

        Calls must come in arrival order (the emulator makes them from the
        event of the packet standing here): the wait is then the backlog
        that really is ahead of the packet, and the service intervals
        ``[arrival + wait, arrival + wait + transmission)`` never overlap.
        """
        wait = self.next_free - arrival
        if wait <= 0.0:
            self.next_free = arrival + transmission
            return 0.0
        if wait > self.max_queue_delay:
            self.drops += 1
            return -1.0
        self.next_free += transmission
        return wait

    # ------------------------------------------------------------ fault hooks
    def disable(self) -> None:
        """Mark this direction of the link as cut (scenario fault injection)."""
        self.enabled = False

    def enable(self) -> None:
        """Restore a previously cut link direction.

        The queue state (``next_free``) is kept: if the cut was short enough
        that the transmitter would still have been draining backlog, the
        backlog is still there — and if simulated time has moved past it, the
        stale value is harmless (negative queueing delay clamps to zero).
        """
        self.enabled = True

    def degrade(self, *, bandwidth_factor: float = 1.0,
                latency_factor: float = 1.0) -> None:
        """Scale this direction's service rate at runtime (slow-node /
        bottleneck-link fault injection).

        Factors are applied to the *base* values, so repeated degrades do not
        compound: ``degrade(bandwidth_factor=0.5)`` twice still leaves the
        link at half its original bandwidth.  Routing-layer consequences
        (stale plans) are the caller's job — see
        ``NetworkEmulator.degrade_edge``.
        """
        self.latency = self.base_latency * latency_factor
        self.bandwidth = self.base_bandwidth * bandwidth_factor
        self.min_bandwidth = min(self.min_bandwidth, self.bandwidth)

    def restore(self) -> None:
        """Undo :meth:`degrade`: back to the construction-time service rate."""
        self.latency = self.base_latency
        self.bandwidth = self.base_bandwidth

    @property
    def degraded(self) -> bool:
        return (self.latency != self.base_latency
                or self.bandwidth != self.base_bandwidth)

    @property
    def max_stress(self) -> int:
        """Most times any single overlay payload was routed over this link
        (the link-stress numerator)."""
        return max(self.overlay_payloads.values(), default=0)

    @property
    def queue_bytes(self) -> float:
        """Backlog the queue has held whenever it dropped, at least:
        ``max_queue_delay`` of transmission at the slowest rate it has had."""
        return self.max_queue_delay * self.min_bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DirectedLink({self.src}->{self.dst}, latency={self.latency}, "
                f"bandwidth={self.bandwidth})")
