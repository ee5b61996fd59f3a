"""Unified observability: metrics registry, trace artifacts, causal tracing.

One opt-in knob (:class:`ObsConfig`, threaded through
``ScenarioSpec.obs`` / ``repro.run(obs=...)``, in simulation and live)
turns on the same three capabilities in every execution mode:

* a :class:`MetricsRegistry` snapshotting to a versioned ``repro.obs/1``
  JSON artifact with a mode-independent key set
  (:func:`~repro.obs.probes.base_registry`);
* streaming ``repro.trace/1`` JSONL export from the runtime
  :class:`~repro.runtime.tracing.Tracer`, with per-run category-level
  overrides;
* causal message tracing (:class:`CausalLog` in sim,
  :class:`LiveCausalLog` over a wire-frame piggyback in live) feeding
  route-path reconstruction (:func:`reconstruct_routes`,
  ``scripts/run_trace.py``).

With ``obs`` unset the runtime takes its historical code paths bit for
bit; see ``docs/OBSERVABILITY.md``.
"""

from .causal import CausalLog, LiveCausalLog
from .config import ObsConfig, build_tracer
from .probes import artifact, base_registry, fill_live, fill_sim
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (OBS_SCHEMA, TRACE_SCHEMA, TraceSink, load_obs_snapshot,
                    load_trace, reconstruct_routes, validate_obs_snapshot,
                    write_obs_snapshot, write_trace_file)

__all__ = [
    "CausalLog",
    "Counter",
    "Gauge",
    "Histogram",
    "LiveCausalLog",
    "MetricsRegistry",
    "OBS_SCHEMA",
    "ObsConfig",
    "TRACE_SCHEMA",
    "TraceSink",
    "artifact",
    "base_registry",
    "build_tracer",
    "fill_live",
    "fill_sim",
    "load_obs_snapshot",
    "load_trace",
    "reconstruct_routes",
    "validate_obs_snapshot",
    "write_obs_snapshot",
    "write_trace_file",
]
