"""The timer subsystem.

A ``mac`` state-variable block may declare timers with an optional default
period::

    state_variables {
        timer keep_probing;
        timer probe_requester 5.0;
    }

Timer expirations are events that trigger timer transitions.  The agent owns
one :class:`ProtocolTimer` per declaration and exposes the paper's
``timer_sched`` / ``timer_resched`` / ``timer_cancel`` primitives on top of
it.  Timers are one-shot: periodic behaviour is expressed (exactly as in the
paper's Overcast/Chord specs) by the transition rescheduling its own timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .engine import Simulator


class TimerError(RuntimeError):
    """Raised for unknown timers or scheduling misuse."""


@dataclass(frozen=True)
class TimerSpec:
    """A declared timer: its name and optional default period in seconds."""

    name: str
    period: Optional[float] = None


class ProtocolTimer:
    """One named timer owned by an agent instance.

    Timers are the protocol plane's per-send churn: every periodic transition
    reschedules its own timer.  A timer rides the kernel's generation-counter
    entries (:meth:`Simulator.schedule_gen`, the only cancellable kind): one
    shared one-int *cell* per timer, bumped to cancel, with the ``_armed``
    flag keeping at most one live entry per cell.  The failure detector's
    sweep is one of these too.
    """

    __slots__ = ("spec", "simulator", "_on_expire", "_cell", "_armed",
                 "_deadline", "fire_count")

    def __init__(self, spec: TimerSpec, simulator: Simulator,
                 on_expire: Callable[[str], None]) -> None:
        self.spec = spec
        self.simulator = simulator
        self._on_expire = on_expire
        #: Generation cell shared with the kernel's heap entries; bumping the
        #: int cancels whatever entry captured the previous value.
        self._cell = [0]
        self._armed = False
        self._deadline = 0.0
        self.fire_count = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def scheduled(self) -> bool:
        return self._armed

    @property
    def expires_at(self) -> Optional[float]:
        if not self._armed:
            return None
        return self._deadline

    def schedule(self, delay: Optional[float] = None) -> None:
        """Schedule the timer *delay* seconds from now.

        With no explicit delay, the declared default period is used; a timer
        declared without a period must always be given an explicit delay.
        Scheduling an already-scheduled timer pushes the expiration out
        (i.e. behaves like the paper's ``timer_resched``).
        """
        if delay is None:
            delay = self.spec.period
        if delay is None:
            raise TimerError(
                f"timer {self.name!r} has no default period; pass an explicit delay"
            )
        if delay < 0:
            raise TimerError(f"timer {self.name!r} scheduled with negative delay {delay}")
        simulator = self.simulator
        if self._armed:
            simulator.cancel_gen(self._cell)
        self._armed = True
        self._deadline = simulator._now + delay
        simulator.schedule_gen(delay, self._fire, self._cell)

    def reschedule(self, delay: Optional[float] = None) -> None:
        """Alias for :meth:`schedule`; mirrors the paper's ``timer_resched``."""
        self.schedule(delay)

    def cancel(self) -> None:
        if self._armed:
            self._armed = False
            self.simulator.cancel_gen(self._cell)

    def _fire(self) -> None:
        self._armed = False
        self.fire_count += 1
        self._on_expire(self.spec.name)


class TimerTable:
    """All timers of one agent, addressable by name."""

    def __init__(self, simulator: Simulator,
                 on_expire: Callable[[str], None]) -> None:
        self._simulator = simulator
        self._on_expire = on_expire
        self._timers: dict[str, ProtocolTimer] = {}

    def declare(self, spec: TimerSpec) -> ProtocolTimer:
        if spec.name in self._timers:
            raise TimerError(f"timer {spec.name!r} declared twice")
        timer = ProtocolTimer(spec, self._simulator, self._on_expire)
        self._timers[spec.name] = timer
        return timer

    def get(self, name: str) -> ProtocolTimer:
        try:
            return self._timers[name]
        except KeyError as exc:
            raise TimerError(
                f"unknown timer {name!r} (declared: {sorted(self._timers)})"
            ) from exc

    def cancel_all(self) -> None:
        for timer in self._timers.values():
            timer.cancel()

    def __contains__(self, name: str) -> bool:
        return name in self._timers

    def names(self) -> list[str]:
        return sorted(self._timers)
