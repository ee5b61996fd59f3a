"""LiveDriver: the simulator's scheduling contract on a real event loop."""

from __future__ import annotations

import asyncio

import pytest

from repro.live.driver import LiveDriver
from repro.runtime.driver import Driver
from repro.runtime.engine import Simulator
from repro.runtime.timers import ProtocolTimer, TimerSpec

pytestmark = pytest.mark.live


def run(coro):
    return asyncio.run(coro)


def test_simulator_and_drivers_satisfy_the_contract():
    assert isinstance(Simulator(), Driver)
    assert isinstance(LiveDriver(), Driver)


def test_live_schedule_and_cancel():
    async def scenario():
        driver = LiveDriver(seed=1)
        driver.start()
        fired = []
        driver.schedule(0.01, fired.append, "one")
        handle = driver.schedule(0.02, fired.append, "cancelled",
                                 label=lambda: "lazy")
        driver.schedule_fast(0.03, fired.append, "fast")
        assert handle.label == "lazy"
        handle.cancel()
        handle.cancel()   # idempotent
        await driver.run_for(0.1)
        return driver, fired

    driver, fired = run(scenario())
    assert fired == ["one", "fast"]
    assert driver.events_processed == 2
    assert driver.now >= 0.03


def test_live_schedule_gen_discards_stale_generations():
    async def scenario():
        driver = LiveDriver()
        driver.start()
        fired = []
        cell = [0]
        driver.schedule_gen(0.01, lambda: fired.append("stale"), cell)
        driver.cancel_gen(cell)   # bump: armed entry must be discarded
        driver.schedule_gen(0.02, lambda: fired.append("live"), cell)
        await driver.run_for(0.1)
        return driver, fired

    driver, fired = run(scenario())
    assert fired == ["live"]
    assert driver.events_processed == 1


def test_protocol_timer_runs_unchanged_on_the_live_clock():
    """The timer subsystem (built for the simulator's schedule_gen) works
    verbatim against the wall clock — the driver-abstraction payoff."""
    async def scenario():
        driver = LiveDriver()
        driver.start()
        beats = []
        timer = ProtocolTimer(TimerSpec("beat", 0.02), driver,
                              lambda name: beats.append(name))
        timer.schedule()
        timer.reschedule(0.01)   # re-arm: old entry must be discarded
        await driver.run_for(0.05)
        assert timer.fire_count == 1
        timer.schedule(0.01)
        timer.cancel()
        await driver.run_for(0.05)
        return beats, timer

    beats, timer = run(scenario())
    assert beats == ["beat"]
    assert not timer.scheduled


def test_live_negative_delay_clamps_and_errors_are_contained():
    async def scenario():
        driver = LiveDriver()
        driver.start()
        fired = []

        def boom():
            raise RuntimeError("one bad transition")

        driver.schedule_fast(-5.0, fired.append, "clamped")
        driver.schedule_fast(0.01, boom)
        driver.schedule_fast(0.02, fired.append, "after")
        await driver.run_for(0.1)
        return driver, fired

    driver, fired = run(scenario())
    assert fired == ["clamped", "after"]   # the exception did not stop the loop
    assert driver.error_count == 1
    assert len(driver.errors) == 1
    assert "one bad transition" in repr(driver.errors[0])


def test_live_rng_streams_match_simulator_forks():
    live = LiveDriver(seed=42)
    sim = Simulator(seed=42)
    assert live.fork_rng("chord:7").random() == sim.fork_rng("chord:7").random()
