"""The execution-driver contract: one protocol runtime, two clocks.

MACEDON's headline claim is that a single specification is evaluated both in
*simulation* and in *live deployment* over real networks.  The runtime code
(agents, timers, transports, failure detection) therefore never talks to the
:class:`~repro.runtime.engine.Simulator` by concrete type — it talks to the
**driver contract** defined here: a clock (``now``), the three scheduling
entry points the hot paths use (``schedule`` with a cancellable handle,
fire-and-forget ``schedule_fast``, generation-cancellable ``schedule_gen`` /
``cancel_gen``), deterministic RNG forking, and ``spawn`` for runtimes that
host coroutines.

Two implementations exist:

* the discrete-event :class:`~repro.runtime.engine.Simulator` itself (today's
  path, registered below as a virtual subclass so ``isinstance`` checks hold
  without adding a base class to the hottest object in the repository);
* :class:`repro.live.driver.LiveDriver`, which maps the same surface onto a
  wall-clock asyncio event loop and real elapsed time, so the *unchanged*
  generated agents and transports run over real sockets between OS processes
  (see docs/LIVE.md).

:class:`SimDriver` is a thin explicit wrapper around a ``Simulator`` for call
sites that want to name the abstraction; because the simulator already
satisfies the contract structurally, passing the bare simulator (as all
existing code does) is equally valid and costs nothing on the hot path.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable, Optional

from .engine import EventHandle, Simulator


class Driver(abc.ABC):
    """What the protocol runtime requires from its execution environment.

    Time is in seconds: simulated seconds under the simulator, wall-clock
    seconds since driver start under a live driver.  The scheduling methods
    mirror :class:`~repro.runtime.engine.Simulator` exactly — see its
    docstrings for the semantics the implementations must preserve (FIFO
    ordering of same-instant events, the one-pending-entry-per-cell invariant
    of ``schedule_gen``, idempotent handle cancellation).
    """

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (simulated or wall-clock since start)."""

    @abc.abstractmethod
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 label: Any = "", **kwargs: Any):
        """Run *callback* in ``delay`` seconds; returns a cancellable handle."""

    @abc.abstractmethod
    def schedule_fast(self, delay: float, callback: Callable[..., Any],
                      *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no kwargs, no label."""

    @abc.abstractmethod
    def schedule_gen(self, delay: float, callback: Callable[[], Any],
                     cell: list) -> None:
        """Generation-cancellable scheduling (see ``Simulator.schedule_gen``)."""

    @abc.abstractmethod
    def cancel_gen(self, cell: list) -> None:
        """Cancel the single pending :meth:`schedule_gen` entry tied to *cell*."""

    @abc.abstractmethod
    def fork_rng(self, name: str) -> random.Random:
        """A new RNG deterministically derived from the driver seed and *name*."""

    def cancel(self, handle: Any) -> None:
        """Cancel a handle returned by :meth:`schedule`.  Idempotent."""
        handle.cancel()

    def spawn(self, coro: Any) -> Any:
        """Run a coroutine on the driver's event loop, if it has one.

        The simulator is synchronous and does not host coroutines; only live
        drivers implement this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not host coroutines")


# The simulator satisfies the contract structurally; register it as a virtual
# subclass rather than inserting an ABC into its MRO (it is the hottest class
# in the repository and its method dispatch must stay flat).
Driver.register(Simulator)


class SimDriver(Driver):
    """Explicit :class:`Driver` facade over a :class:`Simulator`.

    Delegation is by rebinding the simulator's bound methods at construction,
    so going through the facade adds no per-call indirection.  Code that
    already holds a ``Simulator`` can pass it directly (it *is* a virtual
    ``Driver``); this wrapper exists for call sites built against the
    abstraction, e.g. harnesses that accept either clock.
    """

    def __init__(self, simulator: Optional[Simulator] = None, *,
                 seed: int = 0) -> None:
        self.simulator = simulator if simulator is not None else Simulator(seed)
        sim = self.simulator
        self.schedule = sim.schedule            # type: ignore[method-assign]
        self.schedule_fast = sim.schedule_fast  # type: ignore[method-assign]
        self.schedule_gen = sim.schedule_gen    # type: ignore[method-assign]
        self.cancel_gen = sim.cancel_gen        # type: ignore[method-assign]
        self.fork_rng = sim.fork_rng            # type: ignore[method-assign]

    @property
    def now(self) -> float:
        return self.simulator.now

    @property
    def _now(self) -> float:
        # ProtocolTimer and the reliable transports read the underscore form
        # on their fast paths; keep both spellings in lockstep.
        return self.simulator._now

    @property
    def seed(self) -> int:
        return self.simulator.seed

    @property
    def events_processed(self) -> int:
        return self.simulator.events_processed

    # The abstract methods are rebound per instance in __init__; these bodies
    # only exist so the class is instantiable.
    def schedule(self, delay, callback, *args, label="", **kwargs):  # pragma: no cover
        return self.simulator.schedule(delay, callback, *args,
                                       label=label, **kwargs)

    def schedule_fast(self, delay, callback, *args):  # pragma: no cover
        self.simulator.schedule_fast(delay, callback, *args)

    def schedule_gen(self, delay, callback, cell):  # pragma: no cover
        self.simulator.schedule_gen(delay, callback, cell)

    def cancel_gen(self, cell):  # pragma: no cover
        self.simulator.cancel_gen(cell)

    def fork_rng(self, name):  # pragma: no cover
        return self.simulator.fork_rng(name)

    def cancel(self, handle: EventHandle) -> None:
        handle.cancel()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        return self.simulator.run(until=until, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimDriver({self.simulator!r})"
