"""Wall-clock driver: the simulator's scheduling surface on asyncio.

:class:`LiveDriver` implements the :class:`~repro.runtime.driver.Driver`
contract against a real event loop, so every consumer of the simulator's
scheduling API — :class:`~repro.runtime.timers.ProtocolTimer`,
:class:`~repro.transport.reliable.ReliableConnection`'s RTO, the failure
detector's sweep, generated transition bodies — runs unchanged in live mode:
``schedule`` maps to ``loop.call_later``, ``schedule_gen`` to the same with
the simulator's generation-token discard rule (the only way to cancel, as in
the simulator), and ``fork_rng`` derives per-subsystem RNG streams from the
seed exactly as the simulator does (a live node's random choices are
reproducible even though its packet timing is not).

The driver keeps time in *spec seconds*: ``now`` is the wall time elapsed
since the cluster's zero divided by ``time_scale``, and every delay handed to
``schedule``/``schedule_at``/``schedule_gen`` is multiplied by it.  Protocol
timers, RTO, the failure detector and a spec's drawn rows therefore all run
on the spec's clock, and this is the one place a node converts between spec
and wall seconds.

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


class LiveDriver(Driver):
    """The event-loop implementation of the driver contract.

    Parameters
    ----------
    seed:
        Seed for :meth:`fork_rng`, giving live nodes the same reproducible
        per-subsystem randomness streams as their simulated counterparts.
    time_scale:
        Wall seconds per spec second.
    """

    def __init__(self, seed: int = 0, time_scale: float = 1.0) -> None:
        self._seed = seed
        self.time_scale = time_scale
        self.rng = random.Random(seed)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._zero = 0.0
        #: Callbacks dispatched so far — the live analogue of the simulator's
        #: ``events_processed``, reported in cluster metrics.
        self.events_processed = 0
        #: The most recent callback exceptions (bounded ring, newest last);
        #: ``error_count`` is the lifetime total.
        self.errors: deque = deque(maxlen=MAX_RETAINED_ERRORS)
        self.error_count = 0

    # ------------------------------------------------------------------- time
    def start(self, loop: Optional[asyncio.AbstractEventLoop] = None, *,
              zero: Optional[float] = None) -> None:
        """Bind to *loop* (default: the running loop) and set the clock.

        ``zero`` is the cluster's zero on the loop's clock (the host's
        monotonic clock, which every process on the host shares); ``None``
        starts the clock now.  A node booting at the start barrier and a
        supervisor-respawned one read the same zero, so a respawned node
        resumes mid-timeline and a probe stamped in one process is timed in
        another on one clock.
        """
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._zero = self._loop.time() if zero is None else zero

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
        return (self._loop.time() - self._zero) / self.time_scale

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
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> None:
        loop = self._require_loop()
        if delay < 0:
            delay = 0.0
        loop.call_later(delay * self.time_scale, self._dispatch, callback,
                        args)

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> None:
        self.schedule(when - self.now, callback, *args)

    def schedule_gen(self, delay: float, callback: Callable[[], Any],
                     cell: list) -> None:
        loop = self._require_loop()
        if delay < 0:
            delay = 0.0
        loop.call_later(delay * self.time_scale, self._dispatch_gen, callback,
                        cell, cell[0])

    def cancel_gen(self, cell: list) -> None:
        # The armed call_later still fires, sees the bumped generation, and
        # discards itself — exactly the simulator's stale-entry rule.
        cell[0] += 1

    # ------------------------------------------------------------------- loop
    async def run_for(self, seconds: float) -> float:
        """Let the loop run events for *seconds* of driver time.

        The live analogue of ``Simulator.run(until=...)``; returns the
        driver-clock time when the wait ended.
        """
        self._require_loop()
        await asyncio.sleep(max(0.0, seconds) * self.time_scale)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LiveDriver(now={self.now:.3f}, "
                f"processed={self.events_processed})")
