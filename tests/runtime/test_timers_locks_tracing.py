"""Tests for the timer subsystem and tracing."""

from __future__ import annotations

import pytest

from repro.runtime.engine import Simulator
from repro.runtime.timers import TimerError, TimerSpec, TimerTable
from repro.runtime.tracing import TraceLevel, Tracer


# ------------------------------------------------------------------------ timers
def test_timer_schedule_and_fire():
    simulator = Simulator()
    fired = []
    table = TimerTable(simulator, fired.append)
    timer = table.declare(TimerSpec("ping", period=2.0))
    timer.schedule()
    simulator.run()
    assert fired == ["ping"]
    assert timer.fire_count == 1
    assert not timer.scheduled


def test_timer_explicit_delay_overrides_period():
    simulator = Simulator()
    fired = []
    table = TimerTable(simulator, fired.append)
    timer = table.declare(TimerSpec("ping", period=10.0))
    timer.schedule(1.0)
    simulator.run(until=2.0)
    assert fired == ["ping"]


def test_timer_without_period_needs_delay():
    simulator = Simulator()
    table = TimerTable(simulator, lambda name: None)
    timer = table.declare(TimerSpec("oneshot"))
    with pytest.raises(TimerError):
        timer.schedule()
    timer.schedule(0.5)
    assert timer.scheduled


def test_reschedule_pushes_expiration_out():
    simulator = Simulator()
    fired = []
    table = TimerTable(simulator, fired.append)
    timer = table.declare(TimerSpec("t", period=5.0))
    timer.schedule(1.0)
    timer.reschedule(3.0)
    simulator.run(until=2.0)
    assert fired == []
    simulator.run(until=4.0)
    assert fired == ["t"]


def test_timer_cancel_and_cancel_all():
    simulator = Simulator()
    fired = []
    table = TimerTable(simulator, fired.append)
    a = table.declare(TimerSpec("a", 1.0))
    b = table.declare(TimerSpec("b", 1.0))
    a.schedule()
    b.schedule()
    a.cancel()
    table.cancel_all()
    simulator.run()
    assert fired == []


def test_timer_table_lookup_and_duplicates():
    simulator = Simulator()
    table = TimerTable(simulator, lambda name: None)
    table.declare(TimerSpec("x"))
    assert "x" in table
    with pytest.raises(TimerError):
        table.declare(TimerSpec("x"))
    with pytest.raises(TimerError):
        table.get("missing")


def test_negative_delay_rejected():
    simulator = Simulator()
    table = TimerTable(simulator, lambda name: None)
    timer = table.declare(TimerSpec("x"))
    with pytest.raises(TimerError):
        timer.schedule(-1.0)


# ----------------------------------------------------------------------- tracing
def test_tracer_levels_filter_categories():
    tracer = Tracer()
    tracer.record(TraceLevel.OFF, 0.0, 1, "p", "state_change", "a")
    tracer.record(TraceLevel.LOW, 1.0, 1, "p", "state_change", "b")
    tracer.record(TraceLevel.LOW, 2.0, 1, "p", "timer", "c")       # needs HIGH
    tracer.record(TraceLevel.HIGH, 3.0, 1, "p", "timer", "d")
    assert tracer.count("state_change") == 1
    assert tracer.count("timer") == 1
    assert len(tracer.records(category="state_change")) == 1


def test_tracer_filters_by_protocol_and_node():
    tracer = Tracer()
    tracer.record(TraceLevel.HIGH, 0.0, 1, "chord", "transition", "x")
    tracer.record(TraceLevel.HIGH, 0.0, 2, "pastry", "transition", "y")
    assert len(tracer.records(protocol="chord")) == 1
    assert len(tracer.records(node=2)) == 1
    assert len(tracer.records()) == 2


def test_tracer_bounds_memory():
    tracer = Tracer(max_records=10)
    for index in range(25):
        tracer.record(TraceLevel.HIGH, float(index), 1, "p", "debug", str(index))
    assert len(tracer) == 10
    assert tracer.dropped == 15
    assert tracer.count("debug") == 25


def test_trace_level_parse():
    assert TraceLevel.parse("low") == TraceLevel.LOW
    assert TraceLevel.parse("HIGH") == TraceLevel.HIGH
    with pytest.raises(ValueError):
        TraceLevel.parse("verbose")
