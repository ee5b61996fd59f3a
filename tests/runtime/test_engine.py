"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.runtime.engine import SimulationError, Simulator


def test_schedule_and_run_in_order():
    simulator = Simulator()
    order = []
    simulator.schedule(2.0, order.append, "b")
    simulator.schedule(1.0, order.append, "a")
    simulator.schedule(3.0, order.append, "c")
    simulator.run()
    assert order == ["a", "b", "c"]
    assert simulator.now == pytest.approx(3.0)


def test_same_time_events_preserve_insertion_order():
    simulator = Simulator()
    order = []
    for name in "abcde":
        simulator.schedule(1.0, order.append, name)
    simulator.run()
    assert order == list("abcde")


def test_zero_delay_event_runs_after_current_instant_events():
    simulator = Simulator()
    order = []

    def first():
        order.append("first")
        simulator.schedule(0.0, order.append, "nested")

    simulator.schedule(1.0, first)
    simulator.schedule(1.0, order.append, "second")
    simulator.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    simulator = Simulator()
    with pytest.raises(SimulationError):
        simulator.schedule(-0.1, lambda: None)


def test_cancel_prevents_execution():
    simulator = Simulator()
    fired = []
    cell = [0]
    simulator.schedule_gen(1.0, lambda: fired.append(1), cell)
    simulator.cancel_gen(cell)
    simulator.run()
    assert fired == []
    assert simulator.events_processed == 0


def test_run_until_stops_at_boundary_and_advances_clock():
    simulator = Simulator()
    fired = []
    simulator.schedule(1.0, fired.append, 1)
    simulator.schedule(5.0, fired.append, 2)
    simulator.run(until=2.0)
    assert fired == [1]
    assert simulator.now == pytest.approx(2.0)
    simulator.run(until=10.0)
    assert fired == [1, 2]


def test_run_until_executes_events_exactly_at_boundary():
    simulator = Simulator()
    fired = []
    simulator.schedule(2.0, fired.append, 1)
    simulator.run(until=2.0)
    assert fired == [1]


def test_stop_from_callback():
    simulator = Simulator()
    fired = []

    def stopper():
        fired.append("stop")
        simulator.stop()

    simulator.schedule(1.0, stopper)
    simulator.schedule(2.0, fired.append, "late")
    simulator.run()
    assert fired == ["stop"]


def test_schedule_at_absolute_time():
    simulator = Simulator()
    fired = []
    simulator.schedule_at(5.0, fired.append, "x")
    simulator.run()
    assert simulator.now == pytest.approx(5.0)
    assert fired == ["x"]


def test_max_events_bound():
    simulator = Simulator()
    count = []

    def reschedule():
        count.append(1)
        simulator.schedule(1.0, reschedule)

    simulator.schedule(1.0, reschedule)
    simulator.run(max_events=10)
    assert len(count) == 10


def test_fork_rng_is_deterministic_and_independent():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    assert a.fork_rng("x").random() == b.fork_rng("x").random()
    assert a.fork_rng("x").random() != a.fork_rng("y").random()


def test_reentrant_run_rejected():
    simulator = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            simulator.run()

    simulator.schedule(1.0, nested)
    simulator.run()


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    simulator = Simulator()
    times = []
    for delay in delays:
        simulator.schedule(delay, lambda: times.append(simulator.now))
    simulator.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


def test_schedule_interleaves_with_schedule_gen_in_insertion_order():
    simulator = Simulator()
    order = []
    cell = [0]
    simulator.schedule(1.0, order.append, "a")
    simulator.schedule_gen(1.0, lambda: order.append("b"), cell)
    simulator.schedule(1.0, order.append, "c")
    simulator.schedule(0.5, order.append, "first")
    simulator.run()
    assert order == ["first", "a", "b", "c"]


def test_schedule_rejects_negative_delay_and_counts_as_pending():
    simulator = Simulator()
    with pytest.raises(SimulationError):
        simulator.schedule(-0.5, lambda: None)
    with pytest.raises(SimulationError):
        simulator.schedule_at(-0.5, lambda: None)
    simulator.schedule(1.0, lambda: None)
    assert simulator.pending() == 1
    simulator.run()
    assert simulator.pending() == 0


def test_pending_counter_tracks_schedule_cancel_and_fire():
    simulator = Simulator()
    cells = [[0] for _ in range(5)]
    for i, cell in enumerate(cells):
        simulator.schedule_gen(float(i + 1), lambda: None, cell)
    simulator.schedule(10.0, lambda: None)
    assert simulator.pending() == 6
    simulator.cancel_gen(cells[0])
    assert simulator.pending() == 5
    simulator.run(until=3.0)
    assert simulator.pending() == 3
    simulator.run()
    assert simulator.pending() == 0
