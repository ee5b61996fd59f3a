"""Unified observability: metrics snapshots, trace artifacts, causal tracing.

One opt-in knob (:class:`ObsConfig`, threaded through
``ScenarioSpec.obs`` / ``repro.run(obs=...)``, in simulation and live)
turns on the same three capabilities in every execution mode:

* a versioned ``repro.obs/1`` JSON snapshot folded from the run's
  per-process reports (:func:`fold_snapshot`), with a mode-independent
  key set;
* streaming ``repro.trace/1`` JSONL export from the runtime
  :class:`~repro.runtime.tracing.Tracer`, with per-run category-level
  overrides;
* causal message tracing (:class:`CausalLog`, one class whose trace
  identity rides the packet in simulation and a ``TRACE`` frame live, on
  the spec clock in both) feeding route-path reconstruction
  (:func:`reconstruct_routes`, ``scripts/run_trace.py``).

With ``obs`` unset the runtime takes its historical code paths bit for
bit; see ``docs/OBSERVABILITY.md``.
"""

from .causal import CausalLog
from .config import ObsConfig, build_tracer
from .probes import fold_snapshot
from .trace import (OBS_SCHEMA, TRACE_SCHEMA, TraceSink, load_obs_snapshot,
                    load_trace, reconstruct_routes, validate_obs_snapshot,
                    write_obs_snapshot)

__all__ = [
    "CausalLog",
    "OBS_SCHEMA",
    "ObsConfig",
    "TRACE_SCHEMA",
    "TraceSink",
    "build_tracer",
    "fold_snapshot",
    "load_obs_snapshot",
    "load_trace",
    "reconstruct_routes",
    "validate_obs_snapshot",
    "write_obs_snapshot",
]
