"""Tests for the runtime invariant checkers."""

from __future__ import annotations

import pytest

from repro.eval import (
    ChurnModel,
    CrashModel,
    PartitionModel,
    ScenarioSpec,
    Stack,
    WorkloadModel,
    check_invariants,
    epoch_monotonicity,
    no_duplicate_delivery,
    no_lost_acks,
    ring_eventually_correct,
)
from repro.eval.invariants import last_disruption
from repro.protocols import chord_agent
from repro.runtime.failure import FailureDetectorConfig

FAST_FAILURE = FailureDetectorConfig(failure_timeout=10.0,
                                     heartbeat_timeout=4.0,
                                     check_interval=1.0)


def run_spec(models, *, agents=None, num_nodes: int = 6, seed: int = 1,
             duration: float = 110.0):
    return ScenarioSpec(
        name="invariants", agents=agents or [chord_agent()],
        num_nodes=num_nodes, duration=duration, seed=seed,
        failure_config=FAST_FAILURE, models=tuple(models)).run()


ADVERSARIAL = [
    ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.34,
               churn_start=20.0, churn_end=55.0, downtime=8.0),
    WorkloadModel(kind="route", source=-1, start=15.0, packets=15, gap=2.0),
]


def test_clean_adversarial_run_satisfies_all_invariants():
    result = run_spec(ADVERSARIAL)
    assert check_invariants(result) == []


def test_last_disruption_ignores_unfired_and_measurement_events():
    result = run_spec(ADVERSARIAL)
    when = last_disruption(result)
    assert 0.0 < when <= result.duration
    # Route probes happen later than the final churn event but never count.
    route_times = [t for t, kind, _ in result.events if kind == "route"]
    assert max(route_times) > when


def test_duplicate_delivery_detected():
    class DoubleDeliverAgent(chord_agent()):
        def route_data(self, target, payload, size, hops, sender=None):
            if self.owns_key(target):
                self.upcall_deliver(payload, size, "data")
            super().route_data(target, payload, size, hops, sender)

    result = run_spec(ADVERSARIAL, agents=[DoubleDeliverAgent])
    violations = no_duplicate_delivery(result)
    assert violations
    assert violations[0].invariant == "no_duplicate_delivery"
    assert "duplicate" in str(violations[0])


def test_epoch_monotonicity_detects_tampered_epoch():
    result = run_spec(ADVERSARIAL)
    assert epoch_monotonicity(result) == []
    victim = result.experiment.nodes[2]
    victim.transport_host.epoch += 7
    violations = epoch_monotonicity(result)
    assert violations
    assert str(victim.address) in str(violations[0])


def test_no_lost_acks_detects_disarmed_retransmission_timer():
    from repro.transport.reliable import ReliableTransport

    result = run_spec(ADVERSARIAL)
    assert no_lost_acks(result) == []
    # Forge a stranded connection: in-flight data, timer disarmed.
    for node in result.experiment.nodes:
        if node.crashed:
            continue
        for transport in node.transport_host._transports.values():
            if isinstance(transport, ReliableTransport) and \
                    transport._connections:
                connection = next(iter(transport._connections.values()))
                connection.in_flight[99999] = object()
                connection._timer_armed = False
                violations = no_lost_acks(result)
                assert violations
                assert "no retransmission timer" in str(violations[0])
                # Forge a stranded ACK: held, but not on the flush list.
                connection._ack_held_since = 1.0
                transport._held_acks = []
                assert "no flush timer" in str(no_lost_acks(result)[-1])
                return
    pytest.fail("no reliable connection found to tamper with")


def test_ring_invariant_detects_scrambled_successors():
    result = run_spec(ADVERSARIAL)
    assert ring_eventually_correct(result) == []
    # Point everyone at themselves: 0% correct successors.
    for node in result.experiment.nodes:
        node.lowest_agent.successor = node.address
    violations = ring_eventually_correct(result)
    assert violations
    assert violations[0].invariant == "ring_eventually_correct"


def test_ring_invariant_vacuous_without_settle_window():
    # Partition heals 5 s before the end: no settle window, no verdict.
    result = run_spec(
        [ChurnModel(join="staggered", join_spacing=0.5),
         PartitionModel(at=100.0, heal_after=5.0,
                        groups=((0, 1, 2), (3, 4, 5)))],
        duration=105.0)
    for node in result.experiment.nodes:
        node.lowest_agent.successor = node.address
    assert ring_eventually_correct(result) == []


def test_ring_invariant_vacuous_for_ringless_protocols():
    result = run_spec(ADVERSARIAL)
    for node in result.experiment.nodes:
        del node.lowest_agent.successor   # instance attr; spec var machinery
    assert ring_eventually_correct(result) == []


def test_no_drop_on_idle_link_detects_a_non_causal_queue():
    """Replay, by hand, what the emulator did before its queues were causal:
    advance a transit link's queue *at submission time* with arrival times of
    packets that are still upstream, in submission order.  The packet that
    reaches the link first is submitted second, waits for one that is not
    there yet, and is dropped by a 1.25 GB/s link that has carried 40 B."""
    from repro.eval.invariants import no_drop_on_idle_link

    result = run_spec(ADVERSARIAL)
    assert no_drop_on_idle_link(result) == []
    emulator = result.experiment.emulator
    key, link = max(emulator._links.items(),
                    key=lambda item: item[1].bandwidth)
    now = result.experiment.simulator.now
    transmission = 40 / link.bandwidth
    assert link.enqueue(now + 0.6, transmission) == 0.0    # far sender first
    assert link.enqueue(now + 0.001, transmission) < 0.0   # near one "waits"
    violations = no_drop_on_idle_link(result)
    assert [v.invariant for v in violations] == ["no_drop_on_idle_link"]
    assert str(key) in violations[0].detail
    assert violations == [v for v in check_invariants(result)
                          if v.invariant == "no_drop_on_idle_link"]


def test_no_drop_on_idle_link_accepts_drop_tail_loss_on_a_full_queue():
    """An overloaded access link drops and passes: it carried its queue."""
    from repro.eval.invariants import no_drop_on_idle_link
    from repro.network.packet import Packet

    result = run_spec(ADVERSARIAL)
    emulator = result.experiment.emulator
    a, b = (node.address for node in result.experiment.nodes[:2])
    accepted = [emulator.send(Packet(a, b, None, 1400)) for _ in range(600)]
    assert False in accepted
    assert no_drop_on_idle_link(result) == []


def test_check_invariants_aggregates_everything():
    result = run_spec(ADVERSARIAL)
    result.experiment.nodes[1].transport_host.epoch += 3
    for node in result.experiment.nodes:
        node.lowest_agent.successor = node.address
    names = {v.invariant for v in check_invariants(result)}
    assert "epoch_monotonicity" in names
    assert "ring_eventually_correct" in names


def pastry_run(**options):
    return run_spec([ChurnModel(join="staggered", join_spacing=0.3),
                     CrashModel(at=20.0, victims=(4,))],
                    agents=Stack("pastry"), num_nodes=14, **options)


def test_pastry_leaf_sets_are_mutual_and_state_bounded_after_a_crash():
    from repro.eval.invariants import (leaf_set_symmetric,
                                       routing_state_bounded)

    result = pastry_run()
    assert leaf_set_symmetric(result) == []
    assert routing_state_bounded(result) == []
    # Chord has no leaf set: both are vacuous there.
    chord = run_spec(ADVERSARIAL)
    assert leaf_set_symmetric(chord) == routing_state_bounded(chord) == []


def test_leaf_set_symmetry_detects_a_one_sided_or_dead_leaf():
    from repro.eval.invariants import leaf_set_symmetric

    result = pastry_run()
    nodes = [node for node in result.experiment.nodes if not node.crashed]
    agent, other = nodes[0].lowest_agent, nodes[1].lowest_agent
    leaf = agent.leafset.addresses()[0]
    agent.leafset.remove(leaf)
    violations = leaf_set_symmetric(result)
    assert violations and {v.invariant for v in violations} == \
        {"leaf_set_symmetric"}
    assert f"{nodes[0].address} is in node {leaf}'s leaf set, but {leaf} " \
        f"is not in {nodes[0].address}'s" in str(violations[0])
    dead = next(node.address for node in result.experiment.nodes
                if node.crashed)
    assert violations == [v for v in check_invariants(result)
                          if v.invariant == "leaf_set_symmetric"]
    other.leafset.remove(other.leafset.addresses()[0])
    other.leafset.add(dead, key=other.hash_of(dead))
    assert any(f"node {nodes[1].address} keeps {dead}, which is not a live "
               f"node" in str(v) for v in leaf_set_symmetric(result))


def test_routing_state_bound_detects_full_membership():
    """14 nodes: (2^4 - 1) * ceil(log_16 14) + 8 = 23 peers; a node that
    knows one more than that, as a full-membership table would at 25
    nodes, is flagged."""
    from repro.eval.invariants import routing_state_bounded

    result = pastry_run()
    agent = result.experiment.nodes[0].lowest_agent
    for slot in range(24):
        agent.table[1000 + slot] = 2**31 + slot
    violations = routing_state_bounded(result)
    assert [v.invariant for v in violations] == ["routing_state_bounded"]
    assert "more than the (2^b - 1) * ceil(log N) + L = 23" in \
        str(violations[0])


def test_pastry_invariants_vacuous_without_settle_window():
    from repro.eval.invariants import leaf_set_symmetric

    result = pastry_run(duration=50.0)
    agent = result.experiment.nodes[0].lowest_agent
    agent.leafset.remove(agent.leafset.addresses()[0])
    assert leaf_set_symmetric(result) == []
