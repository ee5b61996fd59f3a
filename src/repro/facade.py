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

Live mode maps the spec onto a :class:`~repro.live.LiveClusterConfig`
(:func:`live_config`): the protocol is the registry stack the spec's agents
factory names (a :data:`repro.eval.library.PROTOCOLS` row), and the spec's
first :class:`~repro.eval.workload.WorkloadModel` is handed over *whole* —
every live process draws the same schedule from it
(:meth:`~repro.eval.workload.WorkloadModel.draw`), issues and observes its
own share through the simulator's per-node class
(:class:`~repro.eval.workload.NodeWorkload`), ships the same observation
payload home, and the coordinator scores the pool with the model's own
:meth:`~repro.eval.workload.WorkloadModel.score`.  What is replaced is only
the model's ``start``/``gap`` timeline, stretched onto the live workload
window that follows the join wave and settle.  The fault models go through
:func:`repro.live.faults.compile_fault_models` — churn and crash models
become real ``SIGKILL``/respawn schedules, partition and degrade models
become socket fault-table rules, rescaled onto the same window.  A live
deployment runs one seed in one piece.  Keyword overrides pass through to
:class:`~repro.live.LiveClusterConfig` (e.g. ``base_port=48000``), with
``faults=()`` available to opt out of fault compilation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Union


def live_config(spec, **overrides):
    """The :class:`~repro.live.LiveClusterConfig` *spec* deploys as.

    Raises :class:`~repro.eval.scenario.ScenarioError` when the spec's agents
    are not a :data:`~repro.eval.library.PROTOCOLS` row or it has no workload,
    :class:`~repro.live.LiveFaultError` when a fault model has no live
    equivalent (an explicit ``faults=`` override, including ``()``, skips
    fault compilation).
    """
    from .eval.library import PROTOCOLS, RegistryStack
    from .eval.scenario import ScenarioError, WorkloadModel
    from .live import LiveClusterConfig, compile_fault_models

    stack = spec.agents
    if not (isinstance(stack, RegistryStack)
            and stack in PROTOCOLS.values()):
        raise ScenarioError(
            f"spec.agents has no live deployment: a node process compiles "
            f"its stack by registry name, so live mode needs a row of "
            f"repro.eval.library.PROTOCOLS ({sorted(PROTOCOLS)})")
    workloads = [model for model in spec.models
                 if isinstance(model, WorkloadModel)]
    if not workloads:
        raise ScenarioError(
            "spec.models has no WorkloadModel: live mode needs a "
            "WorkloadModel to know what traffic to drive")
    kwargs = dict(nodes=spec.num_nodes, protocol=stack.name,
                  workload=workloads[0], seed=spec.seed)
    kwargs.update(overrides)
    if "duration" not in kwargs:
        # Wall-clock seconds are not simulated seconds: cap the live horizon
        # so a 300s-simulated spec does not hold real sockets for 5 minutes,
        # but keep the workload window clear of the join wave.
        unbounded = LiveClusterConfig(**dict(kwargs, duration=1e9))
        kwargs["duration"] = min(float(spec.duration),
                                 unbounded.workload_start + 10.0)
    config = LiveClusterConfig(**kwargs)
    if "faults" not in kwargs:
        config = replace(config, faults=compile_fault_models(spec, config))
    return config


def _run_live(spec, overrides: dict):
    from .eval.scenario import ScenarioError
    from .live import LiveCluster, LiveFaultError

    try:
        config = live_config(spec, **overrides)
    except LiveFaultError as exc:
        raise ScenarioError(
            f"spec has a fault model with no live equivalent: {exc}; "
            f"pass faults=() to run the workload without it") from exc
    return LiveCluster(config).run()


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
        UDP sockets, returning a :class:`~repro.live.LiveClusterResult`.
    :param obs: an :class:`~repro.obs.ObsConfig` to attach observability
        (metrics snapshot, trace export, causal tracing) to this run in
        any mode; equivalent to setting ``spec.obs`` (sim) or
        ``LiveClusterConfig.obs`` (live).  Single-run only: artifact
        paths are per-run, so multi-seed replication rejects it.
    :param live_overrides: live mode only — forwarded to
        :class:`~repro.live.LiveClusterConfig` (``duration``, ``base_port``,
        ``join_spacing``, ...).
    """
    if mode not in ("sim", "live"):
        raise ValueError(f"unknown mode {mode!r} (sim or live)")
    if mode == "live":
        if jobs != 1 or seeds != 1:
            raise ValueError(
                "live mode boots one real deployment: seeds and jobs do "
                "not apply (override the config instead)")
        if obs is not None:
            live_overrides = dict(live_overrides, obs=obs)
        return _run_live(spec, live_overrides)
    if live_overrides:
        raise ValueError(
            f"unknown options for sim mode: {sorted(live_overrides)}")
    if obs is not None:
        if seeds != 1:
            raise ValueError(
                "obs= attaches per-run artifacts; run one seed at a time")
        spec = replace(spec, obs=obs)
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
