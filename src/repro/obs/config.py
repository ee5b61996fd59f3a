"""Per-run observability configuration.

``ObsConfig`` is the single opt-in knob for the whole layer: a spec (or a
live cluster config) with ``obs=None`` — the default — runs the exact
historical code paths, and the determinism pins
(``tests/eval/test_obs_pin.py``) hold the disabled path byte-identical.
Attaching a config turns on the metrics registry, and optionally the
streaming trace sink, per-run category-level overrides, and causal
message tracing.

The config is a frozen dataclass so it rides inside the frozen
:class:`~repro.eval.scenario.ScenarioSpec` and pickles across the live
cluster's spawn unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..runtime.tracing import Tracer


@dataclass(frozen=True)
class ObsConfig:
    """What to observe and where to put it.

    :param trace_path: write every accepted trace record to this JSONL file
        (schema ``repro.trace/1``).  The in-memory ring stays bounded at
        ``max_records``; the file gets everything.
    :param category_levels: per-run overrides for
        :attr:`~repro.runtime.tracing.Tracer.CATEGORY_LEVELS`, e.g.
        ``{"timer": "low"}`` records timer activity from every agent whose
        ``trace_`` header is at least ``low``.  Values are level names or
        :class:`~repro.runtime.tracing.TraceLevel`.
    :param trace_level: per-run verbosity floor (``"low"``/``"med"``/
        ``"high"``): agents whose spec-declared ``trace_`` header is lower
        record at this level for this run.  Most generated specs declare
        ``trace_ off``, so this is the knob that actually turns their
        category tracing on without editing the spec.
    :param max_records: bound for the tracer's in-memory ring.
    :param causal: tag packets (sim) / wire frames (live) with a trace id
        and hop count, and record per-hop ``route_hop`` trace records for
        route-path reconstruction (``scripts/run_trace.py``).
    :param snapshot_path: write the ``repro.obs/1`` metrics snapshot here
        (it is also returned on the result object either way).
    """

    trace_path: Optional[str] = None
    category_levels: Optional[Mapping[str, str]] = None
    trace_level: Optional[str] = None
    max_records: int = 200_000
    causal: bool = False
    snapshot_path: Optional[str] = None


def build_tracer(config: ObsConfig) -> Tracer:
    """Construct the run's tracer from *config*.

    Must happen before any agent is constructed: agents precompute their
    trace gates from the tracer's category policy at ``__init__`` time
    (see :class:`~repro.runtime.agent.Agent`), so a tracer swapped in
    later would leave stale gates behind.
    """
    sink = None
    if config.trace_path:
        from .trace import TraceSink
        sink = TraceSink(config.trace_path)
    return Tracer(config.max_records,
                  category_levels=config.category_levels,
                  level=config.trace_level, sink=sink)
