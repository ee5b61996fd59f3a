"""Automatic tracing.

The ``trace_`` header of a mac file selects one of four levels (``off``,
``low``, ``med``, ``high``).  Generated agents emit trace records for state
changes, transitions, message transmissions, and timer activity at increasing
levels of detail; the evaluation framework and the debugging workflow both
read the same records (the paper's built-in debugging/evaluation support).

Two extension points serve the observability layer (:mod:`repro.obs`):

* **per-run category overrides** — a tracer built with ``category_levels``
  overrides replaces the class-level :attr:`Tracer.CATEGORY_LEVELS` policy
  for this run only (the class constant is a read-only mapping; every
  tracer reads its own copy).  Agents derive their trace gates from
  :meth:`Tracer.threshold`, which gives the default gates when nothing is
  overridden.
* **streaming export** — an optional ``sink`` (see
  :class:`repro.obs.trace.TraceSink`) receives every accepted record as it
  is produced, so a bounded in-memory ring can spill a complete
  ``repro.trace/1`` JSONL file to disk without holding the run in memory.

The in-memory ring itself is a :class:`collections.deque` with ``maxlen``:
eviction at the bound is O(1) per record (the historical ``list.pop(0)``
was O(n), which made a saturated tracer quadratic over a long run).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional, Union


class TraceLevel(enum.IntEnum):
    """Increasing verbosity, matching the grammar's four settings."""

    OFF = 0
    LOW = 1
    MED = 2
    HIGH = 3

    @classmethod
    def parse(cls, text: str) -> "TraceLevel":
        try:
            return cls[text.upper()]
        except KeyError as exc:
            raise ValueError(f"unknown trace level {text!r}") from exc


@dataclass(frozen=True)
class TraceRecord:
    """One trace event."""

    time: float
    node: int
    protocol: str
    category: str
    detail: str
    data: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects trace records for one simulation.

    A single tracer is shared by every node in an experiment so records are
    globally time-ordered.  ``max_records`` bounds memory for long runs; when
    the bound is hit the oldest records are discarded (counts are kept, and
    a ``sink`` — if attached — has already streamed them out).
    """

    #: Minimum level at which each category is recorded.  ``route_hop`` is
    #: emitted by the causal tracer (:mod:`repro.obs.causal`) and records
    #: whenever tracing is on at all.  Read-only: no run can change it.
    CATEGORY_LEVELS: Mapping[str, TraceLevel] = MappingProxyType({
        "state_change": TraceLevel.LOW,
        "error": TraceLevel.LOW,
        "route_hop": TraceLevel.LOW,
        "transition": TraceLevel.MED,
        "message_send": TraceLevel.MED,
        "message_recv": TraceLevel.MED,
        "timer": TraceLevel.HIGH,
        "neighbor": TraceLevel.HIGH,
        "debug": TraceLevel.HIGH,
    })

    def __init__(self, max_records: int = 200_000, *,
                 category_levels: Optional[Mapping[str, Union[str, TraceLevel]]]
                 = None,
                 level: Optional[Union[str, TraceLevel]] = None,
                 sink: Optional[Any] = None) -> None:
        self._records: deque[TraceRecord] = deque(maxlen=max_records)
        self._max_records = max_records
        self.counts: dict[str, int] = {}
        self.dropped = 0
        #: Optional streaming sink with a ``write(record)`` method; every
        #: accepted record is forwarded before ring eviction can touch it.
        self.sink = sink
        #: Per-run verbosity floor: agents whose spec-declared ``TRACE`` is
        #: below this record at this level instead (instance-scoped raise,
        #: see :class:`repro.runtime.agent.Agent`).  ``None`` leaves every
        #: agent at its declared level.
        self.level_floor: Optional[TraceLevel] = (
            None if level is None
            else level if isinstance(level, TraceLevel)
            else TraceLevel.parse(str(level)))
        #: This run's policy: a copy of the class's, with the overrides.
        self.category_levels: dict[str, TraceLevel] = dict(self.CATEGORY_LEVELS)
        for category, override in (category_levels or {}).items():
            if category not in self.category_levels:
                raise ValueError(
                    f"unknown trace category {category!r} "
                    f"(categories: {sorted(self.category_levels)})")
            parsed = (override if isinstance(override, TraceLevel)
                      else TraceLevel.parse(str(override)))
            # An "off" override disables the category outright: its
            # threshold moves above every possible record level.
            self.category_levels[category] = (
                TraceLevel.HIGH + 1 if parsed == TraceLevel.OFF else parsed)

    def threshold(self, category: str) -> TraceLevel:
        """Minimum level at which *category* is recorded by this tracer."""
        return self.category_levels.get(category, TraceLevel.HIGH)

    def record(self, level: TraceLevel, time: float, node: int, protocol: str,
               category: str, detail: str, **data: Any) -> None:
        """Record an event if *level* enables its category."""
        threshold = self.category_levels.get(category, TraceLevel.HIGH)
        if level < threshold:
            return
        self.counts[category] = self.counts.get(category, 0) + 1
        records = self._records
        if len(records) == self._max_records:
            # The deque's maxlen evicts the oldest entry on append; book it.
            self.dropped += 1
        record = TraceRecord(time=time, node=node, protocol=protocol,
                             category=category, detail=detail,
                             data=dict(data))
        records.append(record)
        sink = self.sink
        if sink is not None:
            sink.write(record)

    def records(self, category: Optional[str] = None,
                protocol: Optional[str] = None,
                node: Optional[int] = None) -> list[TraceRecord]:
        """Filtered view over collected records."""
        out = []
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if protocol is not None and record.protocol != protocol:
                continue
            if node is not None and record.node != node:
                continue
            out.append(record)
        return out

    def count(self, category: str) -> int:
        return self.counts.get(category, 0)

    def clear(self) -> None:
        self._records.clear()
        self.counts.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterable[TraceRecord]:
        return iter(self._records)
