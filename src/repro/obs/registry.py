"""Low-overhead metrics primitives: counters, gauges, fixed-bucket histograms.

The registry is the driver-agnostic probe surface of the observability
layer: the simulation engine, the network emulator, the wire transports and
the live cluster all report through the same three instrument types, and
every execution mode snapshots to the same
``repro.obs/1`` artifact shape (see :mod:`repro.obs.probes` for the
canonical instrument namespace and :mod:`repro.obs.trace` for the artifact
writer).

Design constraints, in order:

* **Zero cost when off.**  No instrument is ever consulted on a hot path
  unless an :class:`~repro.obs.config.ObsConfig` was attached to the run;
  the probes are installed by wrapping (the emulator's bound-method-swap
  pattern), never by inline ``if registry:`` checks in the kernel.
* **Cheap when on.**  ``Counter.inc`` is one integer add; ``Histogram``
  uses precomputed fixed bounds and :func:`bisect.bisect_right` — no
  per-observation allocation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional, Sequence


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += float(amount)


class Histogram:
    """Fixed-bound bucket histogram with running sum/min/max.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything above the last edge,
    so ``counts`` has ``len(bounds) + 1`` entries.  Fixed bounds make the
    snapshot *drift-ready*: two runs (sim vs live, this build vs last
    build) always produce comparable vectors.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        edges = tuple(float(bound) for bound in bounds)
        if not edges or any(later <= earlier
                            for later, earlier in zip(edges[1:], edges)):
            raise ValueError(f"histogram bounds must ascend: {bounds!r}")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instruments, snapshottable.

    Instruments are get-or-create so probe sites never need registration
    order; the canonical namespace (:func:`repro.obs.probes.base_registry`)
    pre-creates every instrument so snapshots from different modes always
    carry identical keys, zeros included.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            if bounds is None:
                raise KeyError(f"histogram {name!r} not registered and no "
                               f"bounds given")
            histogram = self._histograms[name] = Histogram(bounds)
        return histogram

    def snapshot(self) -> dict:
        """Plain-data view: ``{"counters": .., "gauges": .., "histograms": ..}``,
        JSON- and pickle-safe."""
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "gauges": {name: gauge.value
                       for name, gauge in sorted(self._gauges.items())},
            "histograms": {name: histogram.snapshot()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }
