"""The execution-driver contract: one protocol runtime, two clocks.

MACEDON's headline claim is that a single specification is evaluated both in
*simulation* and in *live deployment* over real networks.  The runtime code
(agents, timers, transports, failure detection) therefore never talks to the
:class:`~repro.runtime.engine.Simulator` by concrete type — it talks to the
**driver contract** defined here: a clock (``now``), one way to schedule
(``schedule`` / ``schedule_at``, fire-and-forget), one way to cancel
(generation-cancellable ``schedule_gen`` / ``cancel_gen``) and deterministic
RNG forking.

Two implementations exist:

* the discrete-event :class:`~repro.runtime.engine.Simulator` itself (today's
  path, registered below as a virtual subclass so ``isinstance`` checks hold
  without adding a base class to the hottest object in the repository);
* :class:`repro.live.driver.LiveDriver`, which maps the same surface onto a
  wall-clock asyncio event loop and real elapsed time, so the *unchanged*
  generated agents and transports run over real sockets between OS processes
  (see docs/LIVE.md).
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable

from .engine import Simulator


class Driver(abc.ABC):
    """What the protocol runtime requires from its execution environment.

    Time is in seconds: simulated seconds under the simulator, wall-clock
    seconds since driver start under a live driver.  The scheduling methods
    mirror :class:`~repro.runtime.engine.Simulator` exactly — see its
    docstrings for the semantics the implementations must preserve (FIFO
    ordering of same-instant events, the stale-generation discard rule of
    ``schedule_gen``).
    """

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock since start)."""

    @abc.abstractmethod
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> None:
        """Run ``callback(*args)`` in ``delay`` seconds; not cancellable."""

    @abc.abstractmethod
    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time *when*."""

    @abc.abstractmethod
    def schedule_gen(self, delay: float, callback: Callable[[], Any],
                     cell: list) -> None:
        """Generation-cancellable scheduling (see ``Simulator.schedule_gen``)."""

    @abc.abstractmethod
    def cancel_gen(self, cell: list) -> None:
        """Cancel the pending :meth:`schedule_gen` entry tied to *cell*."""

    @abc.abstractmethod
    def fork_rng(self, name: str) -> random.Random:
        """A new RNG deterministically derived from the driver seed and *name*."""


# The simulator satisfies the contract structurally; register it as a virtual
# subclass rather than inserting an ABC into its MRO (it is the hottest class
# in the repository and its method dispatch must stay flat).
Driver.register(Simulator)
