"""Wall-clock driver: the simulator's scheduling surface on asyncio.

:class:`LiveDriver` implements the :class:`~repro.runtime.driver.Driver`
contract against a real event loop, so every consumer of the simulator's
scheduling API — :class:`~repro.runtime.timers.ProtocolTimer`,
:class:`~repro.transport.reliable.ReliableConnection`'s RTO, the failure
detector's sweep, generated transition bodies — runs unchanged in live mode:
``schedule_gen`` maps to ``loop.call_later`` with the same generation-token
discard rule, ``now`` is wall-clock seconds since the driver started, and
``fork_rng`` derives per-subsystem RNG streams from the seed exactly as the
simulator does (a live node's random choices are reproducible even though its
packet timing is not).

Differences from the simulated clock, by necessity:

* a negative delay is clamped to zero instead of raising — wall-clock code
  computing ``deadline - now`` can race the clock by a microsecond;
* callbacks that raise are recorded on :attr:`LiveDriver.errors` (and logged)
  rather than tearing down the event loop — one bad transition must not kill
  a deployed node;
* there is no global event ordering across processes, which is the point.
"""

from __future__ import annotations

import asyncio
import logging
import random
from collections import deque
from typing import Any, Callable, Optional

from ..runtime.driver import Driver

logger = logging.getLogger(__name__)

#: How many callback exceptions to retain for inspection.  A deployed node
#: with a persistently failing periodic timer must not leak memory (each
#: retained exception pins its traceback frames), so the list is a ring;
#: :attr:`LiveDriver.error_count` keeps the running total.
MAX_RETAINED_ERRORS = 64


class LiveHandle:
    """Cancellable handle for :meth:`LiveDriver.schedule` events.

    Mirrors :class:`~repro.runtime.engine.EventHandle`: idempotent
    ``cancel()``, a ``cancelled`` flag, the absolute ``time`` the event is
    due, and a lazily resolved ``label``.
    """

    __slots__ = ("_timer", "_label", "time", "cancelled", "fired")

    def __init__(self, time: float, label: Any) -> None:
        self._timer: Optional[asyncio.TimerHandle] = None
        self._label = label
        self.time = time
        self.cancelled = False
        self.fired = False

    @property
    def label(self) -> str:
        label = self._label
        return label() if callable(label) else label

    def cancel(self) -> None:
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if self._timer is not None:
                self._timer.cancel()


class LiveDriver(Driver):
    """The wall-clock implementation of the driver contract.

    Parameters
    ----------
    seed:
        Seed for :meth:`fork_rng`, giving live nodes the same reproducible
        per-subsystem randomness streams as their simulated counterparts.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self.rng = random.Random(seed)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        #: Callbacks dispatched so far — the live analogue of the simulator's
        #: ``events_processed``, reported in cluster metrics.
        self.events_processed = 0
        #: The most recent callback exceptions (bounded ring, newest last);
        #: ``error_count`` is the lifetime total.
        self.errors: deque = deque(maxlen=MAX_RETAINED_ERRORS)
        self.error_count = 0

    # ------------------------------------------------------------------- time
    def start(self, loop: Optional[asyncio.AbstractEventLoop] = None, *,
              now: float = 0.0) -> None:
        """Bind to *loop* (default: the running loop) and set the clock.

        ``now`` is the driver-clock reading at this instant — 0.0 for a
        node booting at the cluster's barrier-aligned zero, or the elapsed
        cluster time for a supervisor-respawned node, whose clock must
        resume mid-timeline so cluster-relative schedules stay aligned.
        """
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._t0 = self._loop.time() - now

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None:
            # Late binding: a driver used inside a coroutine without an
            # explicit start() attaches to the running loop on first use.
            self.start()
            loop = self._loop
        return loop

    @property
    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._t0

    @property
    def _now(self) -> float:
        # The timer and reliable-transport fast paths read the underscore
        # spelling directly; keep it identical to ``now``.
        return self.now

    @property
    def seed(self) -> int:
        return self._seed

    def fork_rng(self, name: str) -> random.Random:
        return random.Random(f"{self._seed}:{name}")

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, callback: Callable[..., Any], args: tuple) -> None:
        self.events_processed += 1
        try:
            callback(*args)
        except Exception as exc:  # noqa: BLE001 - a node must survive one bad event
            self.error_count += 1
            self.errors.append(exc)
            logger.exception("live event callback %r failed", callback)

    def _dispatch_handle(self, handle: LiveHandle, callback: Callable[..., Any],
                         args: tuple, kwargs: Optional[dict]) -> None:
        if handle.cancelled:
            return
        handle.fired = True
        self.events_processed += 1
        try:
            if kwargs:
                callback(*args, **kwargs)
            else:
                callback(*args)
        except Exception as exc:  # noqa: BLE001
            self.error_count += 1
            self.errors.append(exc)
            logger.exception("live event callback %r failed", callback)

    def _dispatch_gen(self, callback: Callable[[], Any], cell: list,
                      token: int) -> None:
        # Same discard rule as the simulator: a stale token means cancel_gen
        # ran after this entry was armed — not dispatched, not counted.
        if token != cell[0]:
            return
        self.events_processed += 1
        try:
            callback()
        except Exception as exc:  # noqa: BLE001
            self.error_count += 1
            self.errors.append(exc)
            logger.exception("live timer callback %r failed", callback)

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 label: Any = "", **kwargs: Any) -> LiveHandle:
        loop = self._require_loop()
        if delay < 0:
            delay = 0.0
        handle = LiveHandle(self.now + delay, label)
        handle._timer = loop.call_later(delay, self._dispatch_handle, handle,
                                        callback, args, kwargs or None)
        return handle

    def schedule_fast(self, delay: float, callback: Callable[..., Any],
                      *args: Any) -> None:
        loop = self._require_loop()
        if delay < 0:
            delay = 0.0
        loop.call_later(delay, self._dispatch, callback, args)

    def schedule_gen(self, delay: float, callback: Callable[[], Any],
                     cell: list) -> None:
        loop = self._require_loop()
        if delay < 0:
            delay = 0.0
        loop.call_later(delay, self._dispatch_gen, callback, cell, cell[0])

    def cancel_gen(self, cell: list) -> None:
        # The armed call_later still fires, sees the bumped generation, and
        # discards itself — exactly the simulator's stale-entry rule.
        cell[0] += 1

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any,
                    label: Any = "", **kwargs: Any) -> LiveHandle:
        return self.schedule(when - self.now, callback, *args,
                             label=label, **kwargs)

    def cancel(self, handle: LiveHandle) -> None:
        handle.cancel()

    # ------------------------------------------------------------------- loop
    async def run_for(self, seconds: float) -> float:
        """Let the loop run events for *seconds*.

        The live analogue of ``Simulator.run(until=...)``; returns the
        driver-clock time when the wait ended.
        """
        self._require_loop()
        await asyncio.sleep(seconds)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LiveDriver(now={self.now:.3f}, "
                f"processed={self.events_processed})")
