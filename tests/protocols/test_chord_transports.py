"""Which of Chord's messages ride which transport, and where it learns of
dead peers.

``chord.mac`` declares ``TCP CTRL`` first and ``UDP BEST_EFFORT`` second.
Its timer-driven, idempotent maintenance (``get_state``, ``state_reply``,
``notify_pred`` and the fix-finger and refresh lookups and replies) is
best-effort; joins, routed data and the runtime's heartbeats are reliable.
A spec edit that moves one of them fails here by name.
"""

from __future__ import annotations

import collections

import pytest

from repro.network import NetworkEmulator, transit_stub_topology
from repro.protocols import chord_agent
from repro.runtime import MacedonNode, Simulator
from repro.runtime.failure import FailureDetectorConfig
from repro.runtime.messages import Message, _Heartbeat
from repro.transport.base import TransportKind
from repro.transport.demux import TransportHost

CONFIG = FailureDetectorConfig(failure_timeout=4.0, heartbeat_timeout=2.0,
                               check_interval=0.5)

BEST_EFFORT = {"get_state", "state_reply", "notify_pred", "lookup/fix",
               "lookup_reply/fix", "lookup/refresh", "lookup_reply/refresh"}
RELIABLE = {"lookup/join", "lookup_reply/join", "data", "ipdata",
            "heartbeat/ping", "heartbeat/pong"}


def _ring(num: int, seed: int, run_for: float):
    simulator = Simulator(seed=seed)
    emulator = NetworkEmulator(simulator, transit_stub_topology(num, seed=seed))
    agent_classes = [chord_agent()]
    nodes = [MacedonNode(simulator, emulator, agent_classes,
                         failure_config=CONFIG) for _ in range(num)]
    for node in nodes:
        node.macedon_init(nodes[0].address)
    simulator.run(until=run_for)
    return simulator, nodes


def _label(payload) -> str:
    if isinstance(payload, _Heartbeat):
        return f"heartbeat/{payload.kind}"
    assert isinstance(payload, Message)
    if payload.name in ("lookup", "lookup_reply"):
        purpose = payload.fields["purpose"]
        return f"{payload.name}/{('join', 'fix', 'refresh')[purpose]}"
    return payload.name


def test_maintenance_is_best_effort_and_joins_data_and_heartbeats_reliable(
        monkeypatch):
    seen: dict[str, collections.Counter] = collections.defaultdict(
        collections.Counter)
    sent_on: collections.Counter = collections.Counter()
    send = TransportHost.send

    def tallying_send(self, transport_name, dst, payload, size,
                      payload_tag=None):
        if self.active:
            seen[_label(payload)][transport_name] += 1
            sent_on[transport_name] += 1
        send(self, transport_name, dst, payload, size, payload_tag)

    monkeypatch.setattr(TransportHost, "send", tallying_send)
    simulator, nodes = _ring(12, seed=31, run_for=20.0)
    for index, node in enumerate(nodes[:6]):
        node.macedon_route(nodes[-1 - index].lowest_agent.my_key, None, 64)
        node.macedon_routeIP(nodes[-1 - index].address, None, 64)
    # A crashed node falls silent, so its neighbours ping it.  A live node
    # cut off for longer than g but shorter than f is pinged too, and
    # answers once it is back.
    quiet = nodes[2]
    quiet.emulator.detach_host(quiet.address)
    nodes[7].crash()
    simulator.run(until=simulator.now + 3.0)
    quiet.emulator.reattach_host(quiet.address)
    simulator.run(until=simulator.now + CONFIG.failure_timeout + 2.0)

    wrong = {label: dict(counts) for label, counts in seen.items()
             if label in BEST_EFFORT and set(counts) != {"BEST_EFFORT"}
             or label in RELIABLE and set(counts) != {"CTRL"}}
    assert wrong == {}
    assert set(seen) == BEST_EFFORT | RELIABLE
    # The per-instance stats agree with what was handed to each instance.
    stats = [node.transport_host.stats() for node in nodes]
    for name, kind in (("CTRL", TransportKind.TCP),
                       ("BEST_EFFORT", TransportKind.UDP)):
        assert all(node.transport_host.get(name).kind is kind for node in nodes)
        assert sum(s[name].messages_sent for s in stats) == sent_on[name]
    assert sum(s["BEST_EFFORT"].retransmissions for s in stats) == 0
    assert sent_on["BEST_EFFORT"] > sent_on["CTRL"]


@pytest.mark.parametrize("victim", [3, 8])
def test_crashed_successor_drives_error_through_the_heartbeat_detector(
        victim, monkeypatch):
    """The reliable transport never gives up on a peer, so the
    ``fail_detect ringnbr`` heartbeats are Chord's one source of ``error``:
    with maintenance best-effort a crashed successor is still declared
    within ``failure_timeout + check_interval`` and its predecessor moves to
    the next node of the ring."""
    chord = chord_agent()
    method = next(spec.method for spec in chord.TRANSITIONS
                  if (spec.kind, spec.name) == ("api", "error"))
    error = getattr(chord, method)
    errors = []

    def recording_error(self, error_addr):
        errors.append((self.simulator.now, self.my_addr, error_addr))
        return error(self, error_addr)

    monkeypatch.setattr(chord, method, recording_error)
    simulator, nodes = _ring(12, seed=32, run_for=30.0)
    ordered = [address for _, address in sorted(
        (node.lowest_agent.my_key, node.address) for node in nodes)]
    by_address = {node.address: node for node in nodes}
    dead = nodes[victim].address
    at = ordered.index(dead)
    predecessor = by_address[ordered[at - 1]]
    after = ordered[(at + 1) % len(ordered)]
    assert predecessor.lowest_agent.successor == dead
    declared_before = predecessor.failure_detector.stats.failures_declared

    errors.clear()
    by_address[dead].crash()
    crashed_at = simulator.now
    simulator.run(until=crashed_at + CONFIG.failure_timeout
                  + CONFIG.check_interval)

    seen_by_predecessor = [when for when, node, failed in errors
                           if node == predecessor.address and failed == dead]
    assert seen_by_predecessor
    assert seen_by_predecessor[0] <= crashed_at + CONFIG.failure_timeout \
        + CONFIG.check_interval
    assert predecessor.failure_detector.stats.failures_declared \
        > declared_before
    assert {failed for _, _, failed in errors} == {dead}
    assert predecessor.lowest_agent.successor == after
