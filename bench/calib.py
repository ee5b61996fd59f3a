"""Host-speed calibration: one frozen kernel and the slice/normalise helper.

The build host's speed drifts by a quarter in 5-10 s regimes, and raw wall
seconds of identical code drift with it.  Every timed phase is therefore cut
into slices of at most ~0.25 s with one pass of a frozen pure-Python kernel
before and after each slice; a slice's *calibrated* seconds are its wall
seconds scaled by how fast the kernel ran around it, relative to
``CALIB_REF_S``.  All time-based benchmark metrics are calibrated seconds.

The kernel imports nothing from ``repro`` and must never change: changing it
(or ``CALIB_REF_S``) silently rescales every recorded number.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable, Optional, TypeVar

#: Median kernel pass time on the build host, fixed once.  It only sets the
#: unit (calibrated seconds ~ build-host seconds); never re-measure it.
CALIB_REF_S = 0.017

_KERNEL_EVENTS = 12_000

T = TypeVar("T")


class _Cell:
    __slots__ = ("when", "seq", "hits")

    def __init__(self, when: float, seq: int) -> None:
        self.when = when
        self.seq = seq
        self.hits = 0

    def touch(self, table: dict) -> int:
        self.hits += 1
        table[self.seq & 1023] = self
        return self.seq


def kernel_pass() -> float:
    """Run the frozen kernel once; return its wall seconds.

    The mix mirrors what the simulator does per event: a heap push and pop of
    a tuple entry, a slotted-object allocation, a dict store and a method
    call.  The cyclic collector is off for the pass: its allocations would
    otherwise trigger collections whose cost is the size of the *workload's*
    heap, not the speed of the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        table: dict = {}
        push = heapq.heappush
        pop = heapq.heappop
        state = 12345
        acc = 0
        for seq in range(_KERNEL_EVENTS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            push(heap, (state * 1e-6, seq, _Cell(state * 1e-6, seq)))
            if seq & 1:
                acc += pop(heap)[2].touch(table)
        while heap:
            acc += pop(heap)[2].touch(table)
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if acc != _KERNEL_EVENTS * (_KERNEL_EVENTS - 1) // 2:
        raise AssertionError("calibration kernel checksum changed")
    return elapsed


class Phase:
    """Calibrated time of one phase, accumulated slice by slice."""

    def __init__(self,
                 on_slice: Optional[Callable[[float], None]] = None) -> None:
        self.calibrated_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: Host speed seen by each slice (1.0 = the build host's reference).
        self.speeds: list[float] = []
        #: Called with each slice's wall-to-calibrated factor (the tracer
        #: scales the self seconds it collected during that slice by it).
        self._on_slice = on_slice
        self._last_pass: Optional[float] = None

    def slice(self, work: Callable[[], T]) -> T:
        """Time ``work()`` as one slice between two kernel passes.

        The pass after one slice doubles as the pass before the next, so a
        phase of n back-to-back slices costs n + 1 passes.
        """
        before = self._last_pass if self._last_pass is not None \
            else kernel_pass()
        cpu_start = time.process_time()
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        after = self._last_pass = kernel_pass()
        factor = CALIB_REF_S / ((before + after) / 2.0)
        self.calibrated_s += wall * factor
        self.wall_s += wall
        self.cpu_s += cpu
        self.speeds.append(factor)
        if self._on_slice is not None:
            self._on_slice(factor)
        return result

    def info(self) -> dict:
        """Raw readings for the ``info`` block (never metrics)."""
        speeds = sorted(self.speeds)
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "slices": len(speeds),
            "host_speed_min": speeds[0],
            "host_speed_median": speeds[len(speeds) // 2],
            "host_speed_max": speeds[-1],
        }
