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
costs at least one heap entry — so the internals favour flat ``__slots__``
objects and a hand-written comparison over dataclass conveniences.  See
docs/PERFORMANCE.md for the measured numbers and the rules the fast paths
must preserve (deterministic (time, seq) ordering above all).

The scheduling surface (``now`` / ``schedule`` / ``schedule_fast`` /
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
from typing import Any, Callable, Iterable, Optional, Union

#: A label may be a plain string or a zero-argument callable producing one;
#: callables defer formatting cost until somebody actually reads the label.
Label = Union[str, Callable[[], str]]

# _Event.state values.  An event leaves the PENDING state exactly once, which
# is what lets the live-event counter stay O(1): the transition decrements it,
# and no other code path may.
_PENDING = 0
_CANCELLED = 1
_FIRED = 2


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class _Event:
    """Payload of one heap entry.

    The heap itself holds ``(time, seq, event)`` tuples so ordering — by time,
    then insertion sequence — is resolved by C tuple comparison; ``seq`` is
    unique, so two entries never compare their ``_Event`` payloads.
    """

    __slots__ = ("time", "callback", "args", "kwargs", "label", "state")

    def __init__(self, time: float, callback: Callable[..., Any],
                 args: tuple, kwargs: Optional[dict], label: Label) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        #: ``None`` (not ``{}``) in the common no-kwargs case, so the dispatch
        #: loop can skip the ``**`` unpacking entirely.
        self.kwargs = kwargs
        self.label = label
        self.state = _PENDING


def _resolve_label(label: Label) -> str:
    return label() if callable(label) else label


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Allows the caller to cancel a pending event and to query whether it has
    already fired or been cancelled.
    """

    __slots__ = ("_event", "_simulator")

    def __init__(self, event: _Event, simulator: "Simulator") -> None:
        self._event = event
        self._simulator = simulator

    @property
    def time(self) -> float:
        """Simulated time at which the event is (or was) scheduled to fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.state == _CANCELLED

    @property
    def label(self) -> str:
        return _resolve_label(self._event.label)

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet.  Idempotent."""
        event = self._event
        if event.state == _PENDING:
            event.state = _CANCELLED
            self._simulator._live -= 1


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  All random
        choices made by the network emulator, transports, and protocols should
        derive from :attr:`rng` (or from generators forked via
        :meth:`fork_rng`) so an experiment is fully reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, _Event]] = []
        #: Insertion counter giving the deterministic FIFO tie-break for
        #: same-time events; a plain int incremented inline (cheaper than an
        #: itertools.count next() per schedule on the hot paths).
        self._seq = 0
        self._running = False
        self._stopped = False
        #: Number of PENDING (scheduled, not yet fired or cancelled) events.
        self._live = 0
        self.rng = random.Random(seed)
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

        Subsystems that need their own stream of randomness (e.g. one per
        node) should fork rather than share :attr:`rng`, so adding a new
        consumer does not perturb every other consumer's draws.
        """
        return random.Random(f"{self._seed}:{name}")

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: Label = "",
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule *callback* to run ``delay`` seconds from now.

        Returns an :class:`EventHandle` that can be used to cancel the event.
        A negative delay is an error; a zero delay schedules the callback to
        run after all events already scheduled for the current instant.
        *label* may be a string or a zero-argument callable (evaluated lazily,
        only when the label is actually read).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} s in the past")
        time = self._now + delay
        event = _Event(time, callback, args, kwargs or None, label)
        self._live += 1
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, event))
        return EventHandle(event, self)

    def schedule_fast(self, delay: float, callback: Callable[..., Any],
                      *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no kwargs, no label.

        The hot path for packet delivery and other events that are never
        cancelled or inspected.  Semantically identical to ``schedule`` —
        same (time, seq) ordering — but skips both handle and ``_Event``
        construction: the heap entry is a flat ``(time, seq, callback, args)``
        tuple.  ``seq`` is unique, so mixed 3- and 4-element entries never
        compare past index 1.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} s in the past")
        self._live += 1
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, callback, args))

    def schedule_gen(self, delay: float, callback: Callable[[], Any],
                     cell: list) -> None:
        """Generation-cancellable fire-and-forget scheduling.

        The cancellation-capable sibling of :meth:`schedule_fast`, built for
        timers that re-arm constantly (protocol timers, retransmission
        timeouts): it allocates no ``_Event`` and no :class:`EventHandle` per
        (re)schedule.  *cell* is a one-element list owned by the caller whose
        single int is the timer's current *generation*; the heap entry is a
        flat ``(time, seq, callback, cell, cell[0])`` 5-tuple capturing the
        generation at schedule time.  Cancelling (:meth:`cancel_gen`) bumps
        the generation, and a popped entry whose captured token no longer
        matches ``cell[0]`` is discarded exactly like a cancelled
        :class:`EventHandle` event: not dispatched, not counted towards
        ``events_processed``, and it does not advance the clock.

        Ordering is the shared deterministic ``(time, seq)`` order — ``seq``
        is unique across all three entry widths, so comparison never reaches
        the payload.  The caller is responsible for the one-pending-entry
        invariant: at most one live entry per cell, tracked by an "armed"
        flag (see :class:`repro.runtime.timers.ProtocolTimer`).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} s in the past")
        self._live += 1
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue,
                 (self._now + delay, seq, callback, cell, cell[0]))

    def cancel_gen(self, cell: list) -> None:
        """Cancel the single pending :meth:`schedule_gen` entry tied to *cell*.

        Bumps the generation so the stale heap entry is discarded when it
        surfaces.  Must be called exactly once per pending entry (the caller
        tracks an "armed" flag): calling it with no entry pending would
        corrupt the O(1) live-event counter.
        """
        cell[0] += 1
        self._live -= 1

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., Any],
        *args: Any,
        label: Label = "",
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule *callback* at absolute simulated time *when*."""
        return self.schedule(when - self._now, callback, *args, label=label, **kwargs)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event.  Idempotent."""
        handle.cancel()

    # ---------------------------------------------------------------- running
    def pending(self) -> int:
        """Number of live (scheduled, not cancelled) events.  O(1)."""
        return self._live

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def stats(self) -> dict:
        """Kernel counters for the observability snapshot (``repro.obs``).

        The driver-agnostic probe surface: :class:`LiveDriver` exposes the
        same ``events_processed`` reading, so both clocks report through
        one key set.
        """
        return {"events_processed": self.events_processed,
                "pending": self._live, "now": self._now}

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
                width = len(entry)
                if width == 4:
                    # Fire-and-forget entry from schedule_fast: uncancellable,
                    # dispatch straight from the tuple.
                    if time < self._now:
                        raise SimulationError("event queue produced an event in the past")
                    self._live -= 1
                    self._now = time
                    entry[2](*entry[3])
                elif width == 5:
                    # Generation-cancellable entry from schedule_gen: a stale
                    # token means cancel_gen ran (counter already adjusted).
                    if entry[4] != entry[3][0]:
                        continue
                    if time < self._now:
                        raise SimulationError("event queue produced an event in the past")
                    self._live -= 1
                    self._now = time
                    entry[2]()
                else:
                    event = entry[2]
                    if event.state:  # cancelled; counter already decremented
                        continue
                    if time < self._now:
                        raise SimulationError("event queue produced an event in the past")
                    event.state = _FIRED
                    self._live -= 1
                    self._now = time
                    kwargs = event.kwargs
                    if kwargs is None:
                        event.callback(*event.args)
                    else:
                        event.callback(*event.args, **kwargs)
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

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain (bounded by *max_events*)."""
        return self.run(until=None, max_events=max_events)

    # -------------------------------------------------------------- utilities
    def drain_labels(self) -> Iterable[str]:
        """Labels of pending (non-cancelled) events — useful in tests.

        Fire-and-forget events from :meth:`schedule_fast` carry no label and
        appear as empty strings.
        """
        labels = []
        for entry in self._queue:
            width = len(entry)
            if width == 4:
                labels.append("")
            elif width == 5:
                if entry[4] == entry[3][0]:  # live (not generation-cancelled)
                    labels.append("")
            elif entry[2].state == _PENDING:
                labels.append(_resolve_label(entry[2].label))
        return labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending()}, "
            f"processed={self.events_processed})"
        )
