"""``repro.run`` — one front door for every execution mode.

The scenario engine grew three entry points as the paper's evaluation grew:
:meth:`~repro.eval.scenario.ScenarioSpec.run` (single-process simulation),
:class:`~repro.eval.runner.ScenarioRunner` (multi-seed replication, seeds in
parallel worker processes), and :class:`~repro.live.LiveCluster` (real
processes over real sockets).  They all execute the *same* declarative
:class:`~repro.eval.scenario.ScenarioSpec`; this module folds them behind
one function so a spec written once runs anywhere::

    result  = repro.run(spec)                       # spec.run()
    summary = repro.run(spec, seeds=5, jobs=4)      # ScenarioRunner(...)
    live    = repro.run(spec, mode="live")          # LiveCluster(...)

The facade adds no semantics: each dispatch is byte-identical to calling
the underlying entry point directly (pinned by
``tests/eval/test_facade.py``), and the old entry points remain public.

Live mode deploys the spec itself, ``LiveClusterConfig(spec, **overrides)``:
the protocol is the registry stack the spec's agents factory names (a
:data:`repro.eval.library.PROTOCOLS` row), and every node process and the
coordinator draw the spec's schedule — joins, group rows, workload ops,
fault rows — exactly as the simulator draws it.  The schedule, protocol
timers and the failure detector all keep spec seconds, each run in
``time_scale`` wall seconds (by default the spec is fitted into a dozen wall
seconds).  A live deployment runs one seed in one piece.  Keyword
overrides are the deployment's own knobs (``base_port=48000``,
``time_scale=0.05``, ...).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Union


def run(spec, *, seeds: Union[int, Sequence[int]] = 1, jobs: int = 1,
        mode: str = "sim", obs=None, **live_overrides):
    """Execute *spec* and return its results, whatever the mode.

    :param spec: a :class:`~repro.eval.scenario.ScenarioSpec`.
    :param seeds: ``1`` runs the spec's own seed and returns a
        :class:`~repro.eval.scenario.ScenarioResult`; an integer ``n > 1``
        replicates over ``spec.seed .. spec.seed + n - 1``; an explicit
        sequence runs exactly those seeds.  Multi-seed runs return a
        :class:`~repro.eval.runner.ScenarioSummary`.
    :param jobs: parallel worker processes across seeds (multi-seed only).
    :param mode: ``"sim"`` (default) or ``"live"`` — real processes over
        UDP sockets, returning the same
        :class:`~repro.eval.scenario.ScenarioResult`, scored by the same
        code, with the node process reports on ``per_node``.
    :param obs: an :class:`~repro.obs.ObsConfig` to attach observability
        (metrics snapshot, trace export, causal tracing) to this run in
        any mode; equivalent to setting ``spec.obs``.  Single-run only:
        artifact paths are per-run, so multi-seed replication rejects it.
    :param live_overrides: live mode only — forwarded to
        :class:`~repro.live.LiveClusterConfig` (``time_scale``,
        ``base_port``, ...).
    """
    if mode not in ("sim", "live"):
        raise ValueError(f"unknown mode {mode!r} (sim or live)")
    if mode == "live":
        if jobs != 1 or seeds != 1:
            raise ValueError(
                "live mode boots one real deployment: seeds and jobs do "
                "not apply (override the config instead)")
    elif live_overrides:
        raise ValueError(
            f"unknown options for sim mode: {sorted(live_overrides)}")
    if obs is not None:
        if seeds != 1:
            raise ValueError(
                "obs= attaches per-run artifacts; run one seed at a time")
        spec = replace(spec, obs=obs)
    if mode == "live":
        from .live import LiveCluster, LiveClusterConfig
        return LiveCluster(LiveClusterConfig(spec, **live_overrides)).run()
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        if seeds == 1:
            return spec.run()
        seed_list = [spec.seed + offset for offset in range(seeds)]
    else:
        seed_list = list(seeds)
    from .eval.runner import ScenarioRunner
    return ScenarioRunner(spec, seed_list, jobs=jobs).run()
