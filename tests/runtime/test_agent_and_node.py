"""Tests for the agent runtime, layering, failure detection, and the node."""

from __future__ import annotations

import pytest

from repro.codegen import compile_mac
from repro.network import NetworkEmulator, transit_stub_topology
from repro.runtime import (
    FailureDetectorConfig,
    LockingViolation,
    MacedonNode,
    Simulator,
    Tracer,
)
from repro.runtime.agent import TransitionContext
from repro.runtime.stack import StackError

ECHO = """
protocol echo
addressing ip
trace_high
states { ready; }
transports { UDP U; TCP T; }
messages { U ping { int n; } U pong { int n; } }
state_variables { int pings; int pongs; fail_detect friends buddies; }
neighbor_types { friends 4 { double delay; } }
transitions {
    any API init { state_change("ready") }
    ready recv ping {
        pings = pings + 1
        send_msg("pong", source, n=field("n"))
    }
    ready recv pong { pongs = pongs + 1 }
    ready API route [locking read;] { send_msg("ping", dest_key, n=1) }
    ready API error {
        neighbor_remove(buddies, error_addr)
        pings = -1
    }
}
"""

BADLOCK = """
protocol badlock
addressing ip
states { ready; }
transports { UDP U; }
messages { U poke { } }
state_variables { int count; }
transitions {
    any API init { state_change("ready") }
    ready recv poke [locking read;] { count = count + 1 }
}
"""

UPPER = """
protocol upperproto uses echo
addressing ip
states { ready; }
messages { note { int v; } }
state_variables { int delivered; }
transitions {
    any API init { state_change("ready") }
    ready API multicast { routeip_msg("note", group, v=7) }
    ready recv note { delivered = delivered + field("v") }
}
"""


def build_pair(mac_text, n=2, **node_kwargs):
    agent_class = compile_mac(mac_text)
    simulator = Simulator(seed=3)
    emulator = NetworkEmulator(simulator, transit_stub_topology(max(n, 2), seed=3))
    nodes = [MacedonNode(simulator, emulator, [agent_class], **node_kwargs)
             for _ in range(n)]
    return simulator, nodes


def test_fsm_dispatch_and_message_exchange():
    simulator, (a, b) = build_pair(ECHO)
    a.macedon_init(a.address)
    b.macedon_init(a.address)
    assert a.lowest_agent.state == "ready"
    # route API (read-locked) sends a ping to the destination "key" (an address here).
    a.macedon_route(b.address, None, 0)
    simulator.run(until=5)
    assert b.lowest_agent.pings == 1
    assert a.lowest_agent.pongs == 1


def test_transition_scoped_by_state_not_dispatched_before_init():
    simulator, (a, b) = build_pair(ECHO)
    # Not initialised: agents are in "init" state so "ready recv ping" cannot fire.
    a.lowest_agent.send_msg("ping", b.address, n=1)
    simulator.run(until=5)
    assert b.lowest_agent.pings == 0


def test_locking_violation_detected_in_strict_mode():
    simulator, (a, b) = build_pair(BADLOCK, strict_locking=True)
    a.macedon_init(a.address)
    b.macedon_init(a.address)
    a.lowest_agent.send_msg("poke", b.address)
    with pytest.raises(LockingViolation):
        simulator.run(until=5)


def test_locking_violation_tolerated_in_lenient_mode():
    simulator, (a, b) = build_pair(BADLOCK, strict_locking=False)
    a.macedon_init(a.address)
    b.macedon_init(a.address)
    a.lowest_agent.send_msg("poke", b.address)
    simulator.run(until=5)
    assert b.lowest_agent.count == 1
    assert b.lowest_agent.lock.stats.violations == 1


def test_layering_stack_and_upcall_downcall():
    echo_class = compile_mac(ECHO)
    upper_class = compile_mac(UPPER)
    simulator = Simulator(seed=4)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=4))
    a = MacedonNode(simulator, emulator, [echo_class, upper_class])
    b = MacedonNode(simulator, emulator, [echo_class, upper_class])
    a.macedon_init(a.address)
    b.macedon_init(a.address)
    assert a.stack.describe() == "upperproto/echo"
    assert a.highest_agent.PROTOCOL == "upperproto"
    # multicast on the top layer wraps a note and routeIPs it via echo's route...
    a.macedon_multicast(b.address, None, 0)
    simulator.run(until=5)
    # echo has no routeIP transition so the default passthrough drops at the
    # bottom layer; but the wrapped note goes via downcall route -> echo route
    # transition which sends a ping instead.  The point: no crash, and the
    # wrapped note is not mis-delivered.
    assert b.agent("upperproto").delivered in (0, 7)


def test_stack_layering_validation():
    echo_class = compile_mac(ECHO)
    upper_class = compile_mac(UPPER)
    simulator = Simulator(seed=5)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=5))
    with pytest.raises(StackError):
        MacedonNode(simulator, emulator, [upper_class])          # missing base
    with pytest.raises(StackError):
        MacedonNode(simulator, emulator, [upper_class, echo_class])  # wrong order


def test_failure_detection_triggers_error_transition():
    agent_class = compile_mac(ECHO)
    simulator = Simulator(seed=6)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=6))
    config = FailureDetectorConfig(failure_timeout=5.0, heartbeat_timeout=2.0,
                                   check_interval=1.0)
    a = MacedonNode(simulator, emulator, [agent_class], failure_config=config)
    b = MacedonNode(simulator, emulator, [agent_class], failure_config=config)
    a.macedon_init(a.address)
    b.macedon_init(a.address)
    # a monitors b through its fail_detect neighbor set.
    with a.lowest_agent.lock.acquire("write"):
        a.lowest_agent.neighbor_add(a.lowest_agent.buddies, b.address)
    assert b.address in a.failure_detector.monitored_peers()
    # Kill b: it stops receiving anything, so it cannot answer heartbeats and
    # after the failure timeout a's error transition fires.
    emulator.set_receive_callback(b.address, lambda packet: None)
    simulator.run(until=30)
    assert a.lowest_agent.pings == -1
    assert not a.lowest_agent.buddies.query(b.address)
    assert a.failure_detector.stats.failures_declared == 1
    assert a.failure_detector.stats.heartbeats_sent > 0


def test_heartbeats_keep_silent_but_alive_peer():
    agent_class = compile_mac(ECHO)
    simulator = Simulator(seed=7)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=7))
    config = FailureDetectorConfig(failure_timeout=6.0, heartbeat_timeout=2.0,
                                   check_interval=1.0)
    a = MacedonNode(simulator, emulator, [agent_class], failure_config=config)
    b = MacedonNode(simulator, emulator, [agent_class], failure_config=config)
    a.macedon_init(a.address)
    b.macedon_init(a.address)
    with a.lowest_agent.lock.acquire("write"):
        a.lowest_agent.neighbor_add(a.lowest_agent.buddies, b.address)
    simulator.run(until=60)
    # b answers heartbeats (the runtime does), so it is never declared failed.
    assert a.failure_detector.stats.failures_declared == 0
    assert a.lowest_agent.buddies.query(b.address)


def test_failure_detector_sweep_is_one_timer_until_stopped():
    agent_class = compile_mac(ECHO)
    simulator = Simulator(seed=10)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=10))
    config = FailureDetectorConfig(failure_timeout=5.0, heartbeat_timeout=2.0,
                                   check_interval=1.0)
    node = MacedonNode(simulator, emulator, [agent_class], failure_config=config)
    node.macedon_init(node.address)
    # Echo has no timers and sends nothing: the sweep is the only event.
    assert simulator.pending() == 1
    simulator.run(until=3.5)
    assert simulator.pending() == 1
    node.failure_detector.stop()
    assert simulator.pending() == 0
    node.failure_detector.start()
    assert simulator.pending() == 1
    node.crash()
    assert simulator.pending() == 0
    node.recover(bootstrap=node.address)
    assert simulator.pending() == 1
    simulator.run(until=8.5)
    assert simulator.pending() == 1
    assert simulator.events_processed == 8   # one sweep a second, no more


def test_app_handlers_receive_upcalls():
    agent_class = compile_mac(ECHO)
    simulator = Simulator(seed=8)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=8))
    node = MacedonNode(simulator, emulator, [agent_class])
    delivered = []
    node.macedon_register_handlers(deliver=lambda p, s, t: delivered.append((p, s)))
    node.macedon_init(node.address)
    node.lowest_agent.upcall_deliver("payload", 42, 0)
    assert delivered == [("payload", 42)]


def test_trace_records_collected_per_protocol():
    agent_class = compile_mac(ECHO)
    simulator = Simulator(seed=9)
    tracer = Tracer()
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=9))
    a = MacedonNode(simulator, emulator, [agent_class], tracer=tracer)
    b = MacedonNode(simulator, emulator, [agent_class], tracer=tracer)
    a.macedon_init(a.address)
    b.macedon_init(a.address)
    a.macedon_route(b.address, None, 0)
    simulator.run(until=5)
    assert tracer.count("transition") > 0
    assert tracer.count("message_send") >= 2
    assert all(record.protocol == "echo" for record in tracer.records(category="transition"))


def test_unhandled_api_calls_are_noops_or_passthrough():
    agent_class = compile_mac(ECHO)
    simulator = Simulator(seed=10)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=10))
    node = MacedonNode(simulator, emulator, [agent_class])
    node.macedon_init(node.address)
    # echo declares no join/leave/collect transitions: these must not raise.
    node.macedon_join(1)
    node.macedon_leave(1)
    node.macedon_collect(1, None, 0)
    node.macedon_create_group(1)
