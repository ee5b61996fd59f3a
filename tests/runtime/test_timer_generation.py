"""Generation-counter cancellation semantics of the fast timer path.

``schedule_gen()`` is the kernel's only cancellable entry: a flat heap
entry capturing a generation token, cancelled by bumping the owner's
generation cell.  Protocol timers, transport retransmission timers and the
failure detector's sweep all ride it.  These tests pin its semantics: a
cancelled entry never fires, never counts as a processed event, and
``pending()`` stays exact through arbitrary cancel/reschedule churn.
"""

from __future__ import annotations

import pytest

from repro.runtime.engine import SimulationError, Simulator
from repro.runtime.timers import TimerError, TimerSpec, TimerTable


# ----------------------------------------------------------- engine primitives
def test_schedule_gen_fires_live_entry():
    simulator = Simulator()
    fired = []
    cell = [0]
    simulator.schedule_gen(1.0, lambda: fired.append(simulator.now), cell)
    assert simulator.pending() == 1
    simulator.run()
    assert fired == [1.0]
    assert simulator.pending() == 0
    assert simulator.events_processed == 1


def test_cancel_gen_discards_entry():
    simulator = Simulator()
    fired = []
    cell = [0]
    simulator.schedule_gen(1.0, lambda: fired.append("gen"), cell)
    simulator.cancel_gen(cell)
    assert simulator.pending() == 0
    simulator.run()
    assert fired == []
    # A generation-cancelled entry does not count as a processed event.
    assert simulator.events_processed == 0


def test_reschedule_after_cancel_only_new_entry_fires():
    simulator = Simulator()
    fired = []
    cell = [0]
    simulator.schedule_gen(1.0, lambda: fired.append("old"), cell)
    simulator.cancel_gen(cell)
    simulator.schedule_gen(3.0, lambda: fired.append("new"), cell)
    assert simulator.pending() == 1
    simulator.run()
    assert fired == ["new"]
    assert simulator.now == 3.0
    assert simulator.events_processed == 1


def test_schedule_gen_orders_with_other_entry_widths():
    simulator = Simulator()
    order = []
    cell = [0]
    simulator.schedule(1.0, order.append, "first")
    simulator.schedule_gen(1.0, lambda: order.append("gen"), cell)
    simulator.schedule(1.0, order.append, "last")
    simulator.run()
    # Same time => insertion (seq) order across both entry widths.
    assert order == ["first", "gen", "last"]


def test_schedule_gen_rejects_negative_delay():
    simulator = Simulator()
    with pytest.raises(SimulationError):
        simulator.schedule_gen(-0.1, lambda: None, [0])


def test_stale_gen_entry_does_not_advance_clock():
    simulator = Simulator()
    seen = []
    cell = [0]
    simulator.schedule_gen(5.0, lambda: None, cell)
    simulator.cancel_gen(cell)
    simulator.schedule(1.0, lambda: seen.append(simulator.now))
    simulator.run(until=10.0)
    assert seen == [1.0]
    assert simulator.now == 10.0


# ------------------------------------------------------------- protocol timers
def make_timer(period=2.0):
    simulator = Simulator()
    fired = []
    table = TimerTable(simulator, fired.append)
    timer = table.declare(TimerSpec("t", period=period))
    return simulator, timer, fired


def test_cancelled_timer_never_fires_and_uncounts_pending():
    simulator, timer, fired = make_timer()
    timer.schedule()
    assert simulator.pending() == 1
    timer.cancel()
    assert not timer.scheduled
    assert simulator.pending() == 0
    simulator.run()
    assert fired == []
    assert timer.fire_count == 0
    assert simulator.events_processed == 0


def test_cancel_is_idempotent():
    simulator, timer, fired = make_timer()
    timer.schedule()
    timer.cancel()
    timer.cancel()   # a second cancel is a no-op
    assert simulator.pending() == 0
    simulator.run()
    assert fired == []


def test_reschedule_supersedes_pending_entry():
    simulator, timer, fired = make_timer()
    timer.schedule(1.0)
    timer.reschedule(4.0)
    assert timer.expires_at == 4.0
    simulator.run(until=2.0)
    assert fired == []
    simulator.run()
    assert fired == ["t"]
    assert timer.fire_count == 1
    assert simulator.now == 4.0


def test_cancel_then_reschedule_fires_exactly_once():
    simulator, timer, fired = make_timer()
    timer.schedule(1.0)
    timer.cancel()
    timer.schedule(2.0)
    simulator.run()
    assert fired == ["t"]
    assert simulator.now == 2.0


def test_periodic_reschedule_from_expiry_reuses_generation_path():
    simulator = Simulator()
    fired = []
    table = TimerTable(simulator, lambda name: None)
    timer = table.declare(TimerSpec("beat", period=1.0))

    def on_expire(name):
        fired.append(simulator.now)
        if len(fired) < 5:
            timer.schedule()   # the paper's periodic idiom: self-reschedule

    table._on_expire = on_expire
    timer._on_expire = on_expire
    timer.schedule()
    simulator.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert timer.fire_count == 5
    assert simulator.pending() == 0


def test_scheduled_and_expires_at_track_generation_state():
    simulator, timer, _ = make_timer(period=3.0)
    assert not timer.scheduled
    assert timer.expires_at is None
    timer.schedule()
    assert timer.scheduled
    assert timer.expires_at == 3.0
    simulator.run()
    assert not timer.scheduled
    assert timer.expires_at is None


def test_negative_delay_still_raises_timer_error():
    simulator, timer, _ = make_timer()
    with pytest.raises(TimerError):
        timer.schedule(-0.5)
    # A rejected schedule must not have disturbed the pending count.
    assert simulator.pending() == 0
