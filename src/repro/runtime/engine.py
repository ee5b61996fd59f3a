"""Discrete-event simulation kernel.

Everything in the reproduction that needs time — link transmission, timer
expirations, protocol maintenance, application sending — is driven by a single
:class:`Simulator` instance.  The kernel is intentionally small: a priority
queue of events ordered by (time, sequence number), a simulated clock, and a
deterministic random number generator so whole experiments are reproducible
from a seed.

The paper's runtime uses thread pools for the timer and transport subsystems;
here the same event sources are multiplexed onto one deterministic event loop,
which is what lets the evaluation scale to thousands of overlay nodes on a
single machine (the role ModelNet plays in the paper).

The kernel is the hottest code in the repository — every simulated packet
costs at least one heap entry — so a heap entry is a flat tuple, not an
object: ``(time, seq, callback, args)`` from :meth:`Simulator.schedule`, or
``(time, seq, callback, cell, token)`` from :meth:`Simulator.schedule_gen`,
the one way to cancel.  See docs/PERFORMANCE.md for the measured numbers and
the rules the fast paths must preserve (deterministic (time, seq) ordering
above all).

The scheduling surface (``now`` / ``schedule`` / ``schedule_at`` /
``schedule_gen`` / ``cancel_gen`` / ``fork_rng``) doubles as the repository's
**driver contract** (:mod:`repro.runtime.driver`): the protocol runtime only
ever uses this surface, so the same agents run against either this simulated
clock or the wall-clock asyncio driver of :mod:`repro.live` — the paper's
simulation/live-deployment duality.  ``Simulator`` is registered as a virtual
subclass of :class:`repro.runtime.driver.Driver`; changing these method
signatures means changing the contract.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed of every random stream in the run.  All random choices made
        by the network emulator, transports, and protocols come from
        generators forked via :meth:`fork_rng`, so an experiment is fully
        reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        self._queue: list[tuple] = []
        #: Insertion counter giving the deterministic FIFO tie-break for
        #: same-time events; a plain int incremented inline (cheaper than an
        #: itertools.count next() per schedule on the hot paths).
        self._seq = 0
        self._running = False
        self._stopped = False
        self._seed = seed
        self.events_processed = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def seed(self) -> int:
        return self._seed

    def fork_rng(self, name: str) -> random.Random:
        """Return a new RNG deterministically derived from the seed and *name*.

        Each subsystem that needs randomness (e.g. one per node) forks its
        own stream, so adding a new consumer does not perturb every other
        consumer's draws.
        """
        return random.Random(f"{self._seed}:{name}")

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        A negative delay is an error; a zero delay schedules the callback to
        run after all events already scheduled for the current instant.  The
        event cannot be cancelled: the heap entry is a flat
        ``(time, seq, callback, args)`` tuple.  Keyword arguments go through
        ``functools.partial``; an event that may be withdrawn uses
        :meth:`schedule_gen`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} s in the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, callback, args))

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated time *when*."""
        self.schedule(when - self._now, callback, *args)

    def schedule_gen(self, delay: float, callback: Callable[[], Any],
                     cell: list) -> None:
        """Generation-cancellable scheduling: the one way to cancel an event.

        Built for timers that re-arm constantly (protocol timers,
        retransmission timeouts, the failure detector's sweep): it allocates
        nothing per (re)schedule but the heap entry.  *cell* is a one-element
        list owned by the caller whose single int is the timer's current
        *generation*; the heap entry is a flat
        ``(time, seq, callback, cell, cell[0])`` 5-tuple capturing the
        generation at schedule time.  Cancelling (:meth:`cancel_gen`) bumps
        the generation, and a popped entry whose captured token no longer
        matches ``cell[0]`` is discarded: not dispatched, not counted towards
        ``events_processed``, and it does not advance the clock.

        Ordering is the shared deterministic ``(time, seq)`` order — ``seq``
        is unique across both entry widths, so comparison never reaches the
        payload.  The caller keeps at most one live entry per cell, tracked
        by an "armed" flag (see :class:`repro.runtime.timers.ProtocolTimer`).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} s in the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue,
                 (self._now + delay, seq, callback, cell, cell[0]))

    def cancel_gen(self, cell: list) -> None:
        """Cancel the pending :meth:`schedule_gen` entry tied to *cell*.

        Bumps the generation so the stale heap entry is discarded when it
        surfaces.
        """
        cell[0] += 1

    # ---------------------------------------------------------------- running
    def pending(self) -> int:
        """Number of live events: every :meth:`schedule` entry plus every
        :meth:`schedule_gen` entry whose generation is still current.

        A scan of the heap, for tests and debugging.
        """
        return sum(1 for entry in self._queue
                   if len(entry) == 4 or entry[4] == entry[3][0])

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Simulated time at which to stop.  Events scheduled exactly at
            ``until`` are executed.  ``None`` runs until the queue drains.
        max_events:
            Safety valve: stop after this many events have been processed.

        Returns
        -------
        float
            The simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        self._stopped = False
        processed = 0
        queue = self._queue
        pop = heappop   # local alias: one global lookup saved per event
        time_limit = float("inf") if until is None else until
        event_limit = float("inf") if max_events is None else max_events
        try:
            while queue and not self._stopped:
                entry = queue[0]
                time = entry[0]
                if time > time_limit:
                    break
                pop(queue)
                if len(entry) == 4:
                    if time < self._now:
                        raise SimulationError("event queue produced an event in the past")
                    self._now = time
                    entry[2](*entry[3])
                else:
                    # A stale token means cancel_gen ran: discard the entry.
                    if entry[4] != entry[3][0]:
                        continue
                    if time < self._now:
                        raise SimulationError("event queue produced an event in the past")
                    self._now = time
                    entry[2]()
                processed += 1
                if processed >= event_limit:
                    break
            if until is not None and not self._stopped and self._now < until:
                # Advance the clock even if the queue drained early so callers
                # can rely on `now >= until` after a bounded run.
                self._now = until
        finally:
            self.events_processed += processed
            self._running = False
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending()}, "
            f"processed={self.events_processed})"
        )
