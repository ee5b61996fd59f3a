"""Direct Tracer coverage: thresholds, views, bounds, overrides, sinks.

The basics (level filtering, protocol/node views, memory bound) are also
exercised in test_timers_locks_tracing.py; this module owns the deeper
contract the observability layer leans on — per-run category overrides,
drop accounting at the deque bound, ``clear()``, and the streaming sink.
"""

from __future__ import annotations

import json

import pytest

from repro.network import NetworkEmulator, transit_stub_topology
from repro.obs import TraceSink
from repro.protocols import randtree_agent
from repro.runtime import MacedonNode, Simulator
from repro.runtime.tracing import TraceLevel, Tracer


def fill(tracer: Tracer, count: int, category: str = "debug") -> None:
    for index in range(count):
        tracer.record(TraceLevel.HIGH, float(index), 1, "p", category,
                      str(index))


# ------------------------------------------------------------- thresholds
def test_category_thresholds_filter_exactly():
    tracer = Tracer()
    # state_change records at LOW, timer needs HIGH, debug needs HIGH.
    tracer.record(TraceLevel.LOW, 0.0, 1, "p", "state_change", "kept")
    tracer.record(TraceLevel.LOW, 1.0, 1, "p", "timer", "filtered")
    tracer.record(TraceLevel.MED, 2.0, 1, "p", "timer", "filtered")
    tracer.record(TraceLevel.HIGH, 3.0, 1, "p", "timer", "kept")
    assert [record.detail for record in tracer.records()] == ["kept", "kept"]
    # counts tally accepted records only.
    assert tracer.counts == {"state_change": 1, "timer": 1}


def test_route_hop_category_records_at_low():
    tracer = Tracer()
    tracer.record(TraceLevel.HIGH, 0.0, 1, "p", "route_hop", "hop",
                  trace_id=7, hop=0, src=2, latency=0.01)
    assert tracer.count("route_hop") == 1
    (record,) = tracer.records(category="route_hop")
    assert record.data == {"trace_id": 7, "hop": 0, "src": 2,
                           "latency": 0.01}


def test_filtered_record_views():
    tracer = Tracer()
    tracer.record(TraceLevel.HIGH, 0.0, 1, "chord", "transition", "a")
    tracer.record(TraceLevel.HIGH, 1.0, 2, "pastry", "transition", "b")
    tracer.record(TraceLevel.HIGH, 2.0, 1, "chord", "debug", "c")
    assert len(tracer.records(node=1)) == 2
    assert len(tracer.records(protocol="pastry")) == 1
    assert len(tracer.records(category="transition", node=1)) == 1
    assert len(tracer.records()) == 3


# ---------------------------------------------------------- drop accounting
def test_drop_accounting_at_the_bound():
    tracer = Tracer(max_records=5)
    fill(tracer, 12)
    assert len(tracer) == 5
    assert tracer.dropped == 7
    # The deque keeps the newest records (eviction from the head).
    assert [record.detail for record in tracer.records()] \
        == ["7", "8", "9", "10", "11"]
    # counts are accept-side: they keep tallying past the bound.
    assert tracer.count("debug") == 12


def test_clear_resets_records_counts_and_drops():
    tracer = Tracer(max_records=4)
    fill(tracer, 9)
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.dropped == 0
    assert tracer.counts == {}
    fill(tracer, 2)
    assert len(tracer) == 2 and tracer.dropped == 0


# ---------------------------------------------------------------- overrides
def agent_gates(tracer: Tracer, declared: TraceLevel) -> tuple[bool, bool]:
    """The ``(_trace_med, _trace_high)`` gates of an agent declared at
    *declared* on a node traced by *tracer*."""
    simulator = Simulator(seed=1)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=1))
    probe = type("Probe", (randtree_agent(),), {"TRACE": declared})
    agent = MacedonNode(simulator, emulator, [probe], tracer=tracer).lowest_agent
    return agent._trace_med, agent._trace_high


def test_per_run_category_overrides():
    tracer = Tracer(category_levels={"timer": "low", "debug": TraceLevel.OFF})
    tracer.record(TraceLevel.LOW, 0.0, 1, "p", "timer", "now kept")
    tracer.record(TraceLevel.HIGH, 1.0, 1, "p", "debug", "now filtered")
    assert tracer.count("timer") == 1
    assert tracer.count("debug") == 0
    assert tracer.threshold("timer") == TraceLevel.LOW
    # Unmentioned categories keep their class defaults.
    assert tracer.threshold("transition") \
        == Tracer.CATEGORY_LEVELS["transition"]
    # "timer" at LOW opens the HIGH gate of a LOW agent.
    assert agent_gates(tracer, TraceLevel.LOW) == (False, True)


def test_the_class_policy_is_read_only():
    with pytest.raises(TypeError):
        Tracer.CATEGORY_LEVELS["timer"] = TraceLevel.LOW
    assert Tracer.CATEGORY_LEVELS["timer"] == TraceLevel.HIGH


def test_overrides_never_mutate_the_class_constant():
    before = dict(Tracer.CATEGORY_LEVELS)
    Tracer(category_levels={"timer": "low"})
    assert Tracer.CATEGORY_LEVELS == before
    # And a default tracer built afterwards still uses the defaults.
    tracer = Tracer()
    tracer.record(TraceLevel.LOW, 0.0, 1, "p", "timer", "filtered")
    assert tracer.count("timer") == 0
    assert [agent_gates(tracer, level) for level in TraceLevel] == [
        (level >= TraceLevel.MED, level >= TraceLevel.HIGH)
        for level in TraceLevel]


def test_unknown_override_category_rejected():
    with pytest.raises(ValueError):
        Tracer(category_levels={"not_a_category": "high"})


# --------------------------------------------------------------------- sink
def test_sink_streams_past_the_memory_bound(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(max_records=3, sink=TraceSink(str(path), meta={
        "mode": "sim"}))
    fill(tracer, 10)
    tracer.sink.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "repro.trace/1" and header["mode"] == "sim"
    # Every accepted record hit the stream, memory bound notwithstanding.
    assert len(lines) - 1 == 10 == tracer.sink.written
    assert len(tracer) == 3 and tracer.dropped == 7
    record = json.loads(lines[1])
    assert record["cat"] == "debug" and record["node"] == 1


def test_sink_only_sees_accepted_records(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(sink=TraceSink(str(path)))
    tracer.record(TraceLevel.LOW, 0.0, 1, "p", "timer", "filtered")
    tracer.record(TraceLevel.HIGH, 1.0, 1, "p", "timer", "kept")
    tracer.sink.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2  # header + the one accepted record
