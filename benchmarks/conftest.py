"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one table or figure of the MACEDON paper's
evaluation.  The experiments are scaled down from the paper's ModelNet runs
(hundreds to a thousand emulated hosts, hundreds of seconds) to sizes that run
in seconds on one machine; each benchmark's docstring states the paper's
setting next to the scaled one, docs/PERFORMANCE.md "Re-pinned baselines"
records the numbers measured here, and the assertions in each benchmark check
the qualitative shape rather than absolute values.
"""

from __future__ import annotations

import pickle

import pytest

from repro.eval import Stack
from repro.live import live_runnable


def run_once(benchmark, fn):
    """Run a macro-experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    """Fixture form of :func:`run_once`."""
    def _run(fn):
        return run_once(benchmark, fn)
    return _run


@pytest.fixture
def stack_value():
    """Check that a figure's spec names its protocol as a value: its
    ``agents`` is a :class:`~repro.eval.Stack` that pickles back equal.
    Returns ``live_runnable(spec)``, whose reason must name a model row or
    the workload rule, never the agents."""
    def _check(spec):
        assert isinstance(spec.agents, Stack)
        assert pickle.loads(pickle.dumps(spec.agents)) == spec.agents
        ok, reason = live_runnable(spec)
        assert ok or "agents" not in reason, reason
        return ok, reason
    return _check
