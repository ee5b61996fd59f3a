"""Batched multi-seed scenario execution.

One :class:`ScenarioSpec` run is a single sample of a stochastic system; the
paper's figures are means over repeated ModelNet runs.  The
:class:`ScenarioRunner` replays a spec across a list of seeds (fresh
simulator, topology, and RNG streams per seed) and aggregates every numeric
metric into :class:`SummaryStats` — mean, standard deviation, extrema, and
percentiles — which is what the figure benchmarks assert on.
"""

from __future__ import annotations

import math
import os
import pickle
import struct
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

from .metrics import mean, percentile
from .reports import format_table
from .scenario import ScenarioResult, ScenarioSpec

#: Seeds used when the caller does not choose their own replication set.
DEFAULT_SEEDS = (1, 2, 3)


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate of one metric across seeds."""

    count: int
    mean: float
    stddev: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SummaryStats":
        values = [float(v) for v in values]
        if not values:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        average = mean(values)
        variance = sum((v - average) ** 2 for v in values) / len(values)
        return cls(
            count=len(values),
            mean=average,
            stddev=math.sqrt(variance),
            minimum=min(values),
            maximum=max(values),
            p50=percentile(values, 0.5),
            p95=percentile(values, 0.95),
        )


@dataclass
class ScenarioSummary:
    """All per-seed results of one spec plus the cross-seed aggregates."""

    name: str
    seeds: list[int]
    results: list[ScenarioResult]
    aggregate: dict[str, SummaryStats]

    def metric(self, key: str) -> SummaryStats:
        try:
            return self.aggregate[key]
        except KeyError as exc:
            raise KeyError(
                f"no metric {key!r} in scenario {self.name!r} "
                f"(have: {sorted(self.aggregate)})") from exc

    def table(self) -> str:
        """The aggregate as a fixed-width text table (one row per metric)."""
        rows = [(key, stats.mean, stats.stddev, stats.minimum, stats.maximum)
                for key, stats in sorted(self.aggregate.items())]
        return format_table(
            ["metric", "mean", "stddev", "min", "max"], rows,
            title=f"scenario {self.name!r} over seeds {self.seeds}")


class ForkWorkerError(RuntimeError):
    """A forked worker process raised an unhandled exception."""


def fork_map(fn, items, *, jobs: int, label: str = "worker") -> list:
    """Map *fn* over *items* in forked child processes, *jobs* at a time.

    The fork-based sibling of ``multiprocessing.Pool.map`` for callables and
    items that are not picklable (scenario specs carry lambdas): children
    inherit everything by fork and only the *results* travel back through a
    pipe.  Results are returned in item order.  A child that raises ships the
    traceback text back and :func:`fork_map` re-raises it in the parent as
    :class:`ForkWorkerError` — an unhandled worker exception is never
    silently swallowed.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    pending = list(enumerate(items))
    active: list[tuple[int, int, int]] = []  # (pid, index, read_fd), FIFO

    def launch(index: int, item) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            status = 0
            try:
                try:
                    blob = pickle.dumps(("ok", fn(item)),
                                        pickle.HIGHEST_PROTOCOL)
                except BaseException:
                    blob = pickle.dumps(("error", traceback.format_exc()))
                    status = 1
                view = memoryview(struct.pack("!Q", len(blob)) + blob)
                while view:
                    view = view[os.write(write_fd, view):]
            finally:
                os._exit(status)
        os.close(write_fd)
        active.append((pid, index, read_fd))

    def reap_oldest() -> None:
        # Drain the pipe to EOF *before* waitpid: a child whose result
        # exceeds the pipe buffer blocks in write until we read, so waiting
        # on its exit first would deadlock.  Children finishing out of order
        # merely queue behind the oldest pipe; no cycle, no deadlock.
        pid, index, read_fd = active.pop(0)
        chunks = []
        while True:
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(read_fd)
        os.waitpid(pid, 0)
        data = b"".join(chunks)
        if len(data) < 8:
            raise ForkWorkerError(
                f"{label} for item {index} died without reporting a result")
        (length,) = struct.unpack("!Q", data[:8])
        kind, value = pickle.loads(data[8:8 + length])
        if kind == "error":
            raise ForkWorkerError(
                f"{label} for item {index} raised:\n{value}")
        results[index] = value

    try:
        while pending or active:
            while pending and len(active) < jobs:
                index, item = pending.pop(0)
                launch(index, item)
            if active:
                reap_oldest()
    finally:
        for pid, _index, read_fd in active:
            try:
                os.close(read_fd)
            except OSError:
                pass
            try:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            except (OSError, ChildProcessError):
                pass
    return results


class ScenarioRunner:
    """Execute one :class:`ScenarioSpec` across multiple seeds.

    ``jobs`` runs the seeds in parallel worker processes (:func:`fork_map`) —
    seeds are independent replications, so this is embarrassingly parallel.
    """

    def __init__(self, spec: ScenarioSpec,
                 seeds: Optional[Sequence[int]] = None, *,
                 jobs: int = 1) -> None:
        self.spec = spec
        self.seeds = list(seeds) if seeds is not None else list(DEFAULT_SEEDS)
        if not self.seeds:
            raise ValueError("ScenarioRunner needs at least one seed")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def _run_seed(self, seed: int) -> ScenarioResult:
        result = self.spec.with_seed(seed).run()
        if self.jobs > 1:
            # The live experiment holds the simulator and closures — not
            # picklable, and aggregation never reads it; drop it before the
            # result travels back over the worker pipe.
            result.experiment = None
        return result

    def run(self) -> ScenarioSummary:
        results = fork_map(self._run_seed, self.seeds, jobs=self.jobs,
                           label="seed worker")
        # Aggregate over the *union* of metric keys: fuzzed and adversarial
        # scenarios routinely produce seed-dependent metric sets (a model
        # that only fires under some seeds), and intersecting would silently
        # drop those metrics from the summary.  SummaryStats.count records
        # how many seeds actually reported each key.
        keys = set()
        for result in results:
            keys |= set(result.metrics)
        aggregate = {
            key: SummaryStats.from_values(
                [result.metrics[key] for result in results
                 if key in result.metrics])
            for key in keys
        }
        return ScenarioSummary(name=self.spec.name, seeds=list(self.seeds),
                               results=results, aggregate=aggregate)
