"""Failure-detector behaviour under scenario-driven crashes.

The paper's runtime declares a peer failed after *f* seconds of silence and
solicits a heartbeat exchange after *g* < *f* seconds.  These tests drive
real fail-stop crashes through the scenario engine's :class:`CrashModel`
and pin the three properties that matter:

* a heartbeat is solicited once silence passes *g* (and not before);
* the ``error`` API transition fires once silence passes *f*, so the
  protocol repairs its neighbor sets;
* heartbeat-only traffic (no protocol chatter at all) keeps a live peer
  alive indefinitely — no false positives.
"""

from __future__ import annotations

from repro.eval import ChurnModel, CrashModel, ScenarioSpec
from repro.protocols import chord_agent
from repro.runtime.failure import FailureDetectorConfig

F = 10.0   # failure timeout (paper's f)
G = 4.0    # heartbeat timeout (paper's g)
CHECK = 1.0


def build_pair():
    """Bootstrap + one joined peer, mutually monitored via the ring set."""
    experiment = ScenarioSpec(
        name="pair", agents=[chord_agent()], num_nodes=2, duration=300.0,
        seed=3, failure_config=FailureDetectorConfig(
            failure_timeout=F, heartbeat_timeout=G, check_interval=CHECK),
        models=(ChurnModel(join="immediate"),)).build()
    experiment.run(20.0)
    a, b = experiment.nodes
    assert a.lowest_agent.successor == b.address
    assert b.lowest_agent.successor == a.address
    assert a.failure_detector.monitored_peers() == [b.address]
    assert b.failure_detector.monitored_peers() == [a.address]
    return experiment, a, b


def quiet_protocol_traffic(experiment) -> None:
    """Cancel ring maintenance so only runtime heartbeats remain."""
    for node in experiment.nodes:
        for timer in ("stabilize", "fix_fingers", "join_retry"):
            node.lowest_agent.timer_cancel(timer)
    # Drain anything already queued or in flight.
    experiment.run(5.0)


def test_heartbeat_solicited_after_g_but_not_before():
    experiment, a, b = build_pair()
    quiet_protocol_traffic(experiment)
    crash_time = experiment.simulator.now
    experiment.apply_model(CrashModel(at=0.0, victims=(1,), exempt=()))
    baseline = a.failure_detector.stats.heartbeats_sent

    # Strictly inside the g window: no solicitation yet.
    experiment.run(G - 2 * CHECK)
    assert a.failure_detector.stats.heartbeats_sent == baseline

    # Past g (plus sweep slack): the detector starts soliciting heartbeats.
    experiment.run(3 * CHECK)
    assert experiment.simulator.now - crash_time < F
    assert a.failure_detector.stats.heartbeats_sent > baseline


def test_error_upcall_fires_at_f_and_prunes_neighbors():
    experiment, a, b = build_pair()
    quiet_protocol_traffic(experiment)
    experiment.apply_model(CrashModel(at=0.0, victims=(1,), exempt=()))

    experiment.run(F + 2 * CHECK)
    detector = a.failure_detector
    assert detector.stats.failures_declared == 1
    assert detector.monitored_peers() == []
    agent = a.lowest_agent
    # Chord's error transition removed the dead peer and fell back
    # to a singleton ring.
    assert not agent.ring_set.query(b.address)
    assert agent.successor == a.address
    assert agent.predecessor == 0


def test_heartbeat_only_traffic_prevents_false_positives():
    experiment, a, b = build_pair()
    quiet_protocol_traffic(experiment)
    # Nobody crashes; the only packets from here on are heartbeat pings and
    # pongs solicited by the detectors themselves.
    experiment.run(5 * F)
    for node in (a, b):
        assert node.failure_detector.stats.failures_declared == 0
        assert node.failure_detector.stats.heartbeats_sent > 0
    assert a.lowest_agent.successor == b.address
    assert b.lowest_agent.successor == a.address


def test_recovered_peer_is_detected_and_ring_reforms():
    experiment, a, b = build_pair()
    experiment.apply_model(CrashModel(at=0.0, victims=(1,), exempt=(),
                                      recover_after=F + 10.0))
    experiment.run(F + 5.0)
    assert a.lowest_agent.successor == a.address   # b declared dead
    experiment.run(60.0)                           # b recovers and rejoins
    assert b.alive and b.initialized
    assert a.lowest_agent.successor == b.address
    assert b.lowest_agent.successor == a.address
