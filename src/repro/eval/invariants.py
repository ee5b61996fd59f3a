"""Runtime invariants checkable against any :class:`ScenarioResult`.

The scenario engine makes every run a pure function of ``(spec, seed)``;
this module supplies the other half of a bug-finding machine: properties
that must hold at the end of *any* scenario, however adversarial.  The
fuzzer (:mod:`repro.eval.fuzz`) asserts them over randomly generated specs;
tests assert them over the curated library.

Eight invariants:

* **no_duplicate_delivery** — no workload probe is delivered twice to the
  same receiver: the ``(stream, seqno)`` pair is unique per delivery
  (reliable transports reassemble and deduplicate; a duplicate means
  transport or dispatch state leaked across a fault).
* **no_lost_acks** — after the run quiesces, no reliable connection on a
  live node is stranded: unacknowledged in-flight segments imply an armed
  retransmission timer, queued-but-untransmitted segments imply an open
  window being consumed (the send pump never stalls with work pending), and
  a held ACK implies its transport's flush timer is armed.
* **epoch_monotonicity** — transport incarnation numbers track the node
  lifecycle exactly: a live node's transport epoch equals its crash count,
  a crashed node's equals its recover count, and no connection has observed
  a peer epoch from the future.
* **ring_eventually_correct** — for successor-ring protocols (agents that
  expose a ``successor`` pointer), the live membership's successor pointers
  converge to the global ring after the last fault, scored by
  :func:`~repro.eval.metrics.ring_successor_correctness`.
  Skipped when the scenario leaves no settle window or the protocol has no
  ring shape.
* **no_drop_on_idle_link** — a link whose queue dropped a packet has
  carried at least one full queue of bytes (``max_queue_delay × bandwidth``):
  drop-tail loss needs a backlog, and a backlog is made of packets that
  crossed the link.  History-free, and what an emulator that advances a
  queue with arrivals that have not happened yet violates first.
* **kv_no_phantom_reads** — a KV workload's quorum reads never return a
  version that no client ever wrote to that key: replication may lag or
  lose data, but it can never fabricate or cross-wire it.  Unconditional.
* **kv_read_your_quorum_writes** — with ``R + W > N`` and stable, settled
  membership, a read issued after a write completed returns a version at
  least that new.  Checked only when the scenario's last disruptive event
  settled before the workload started (replica sets must be stable for the
  quorum-overlap argument to apply); vacuous otherwise.
* **kv_write_durability** — every quorum-acked write survives on some live
  node as long as fewer than ``write_quorum`` crash events occurred: at
  least one acking replica never crashed, and adoption is monotone.
  Vacuous when crashes reach the quorum size (the workload's
  ``replica_coverage`` metric still reports the degradation).

Live deployments get a parallel set (:func:`check_live_invariants`) phrased
over :class:`~repro.live.cluster.LiveClusterResult` reports — the subset of
these properties that survives the projection through the results queue —
so the differential harness checks the same properties on both sides of a
sim-vs-live comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..transport.reliable import ReliableTransport
from .metrics import (phantom_reads, quorum_staleness,
                      ring_successor_correctness)
from .scenario import ScenarioResult

#: Event kinds that perturb the overlay (everything except measurement
#: traffic); ring convergence is only checkable after the last of these.
DISRUPTIVE_KINDS = frozenset({
    "join", "crash", "recover", "partition", "heal",
    "link-cut", "link-heal", "degrade", "restore",
})


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation: which invariant, and what it saw."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


Invariant = Callable[[ScenarioResult], "list[InvariantViolation]"]


def no_duplicate_delivery(result: ScenarioResult) -> list[InvariantViolation]:
    """Every workload's ``(receiver, seqno)`` deliveries are unique."""
    violations = []
    for compiled in result.experiment.compiled_models:
        observations = getattr(compiled, "observations", None)
        if observations is not None and observations.duplicates:
            violations.append(InvariantViolation(
                "no_duplicate_delivery",
                f"workload {compiled.label!r} saw {observations.duplicates} "
                f"duplicate (receiver, seqno) deliveries"))
    return violations


def no_lost_acks(result: ScenarioResult) -> list[InvariantViolation]:
    """No live reliable connection is stranded after quiesce.

    Unacked in-flight data without an armed retransmission timer would never
    be retransmitted (the segment — and its ack — is lost forever); queued
    data with an empty window would never be transmitted at all (the pump
    always fills at least one window slot); a held ACK whose transport has
    no flush timer armed would never be sent.
    """
    violations = []
    for node in result.experiment.nodes:
        if node.crashed:
            continue
        for transport in node.transport_host._transports.values():
            if not isinstance(transport, ReliableTransport):
                continue
            for peer, connection in transport._connections.items():
                where = (f"node {node.address} -> {peer} "
                         f"({transport.name})")
                if connection.in_flight and not connection._timer_armed:
                    violations.append(InvariantViolation(
                        "no_lost_acks",
                        f"{where}: {len(connection.in_flight)} in-flight "
                        f"segments with no retransmission timer armed"))
                if connection.queue and not connection.in_flight:
                    violations.append(InvariantViolation(
                        "no_lost_acks",
                        f"{where}: {len(connection.queue)} queued segments "
                        f"but an empty window (send pump stalled)"))
                if connection._ack_held_since is not None \
                        and connection not in transport._held_acks:
                    violations.append(InvariantViolation(
                        "no_lost_acks",
                        f"{where}: ACK held since "
                        f"{connection._ack_held_since} with no flush timer "
                        f"armed for it"))
    return violations


def epoch_monotonicity(result: ScenarioResult) -> list[InvariantViolation]:
    """Transport incarnations track node lifecycles; nobody sees the future."""
    violations = []
    nodes = result.experiment.nodes
    crash_counts = {node.address: node.crash_count for node in nodes}
    for node in nodes:
        host = node.transport_host
        # A live node's transport was built at its last recovery (or at
        # construction), so its epoch is the crash count; a crashed node
        # still holds the pre-crash incarnation, the recover count.
        expected = node.recover_count if node.crashed else node.crash_count
        if host.epoch != expected:
            violations.append(InvariantViolation(
                "epoch_monotonicity",
                f"node {node.address}: transport epoch {host.epoch} != "
                f"{expected} (crashes={node.crash_count}, "
                f"recoveries={node.recover_count}, crashed={node.crashed})"))
        for transport in host._transports.values():
            if not isinstance(transport, ReliableTransport):
                continue
            for peer, connection in transport._connections.items():
                peer_epoch = connection.peer_epoch
                if peer_epoch is None:
                    continue
                limit = crash_counts.get(peer)
                if limit is not None and peer_epoch > limit:
                    violations.append(InvariantViolation(
                        "epoch_monotonicity",
                        f"node {node.address} observed epoch {peer_epoch} "
                        f"from peer {peer}, which has only crashed "
                        f"{limit} times"))
    return violations


def last_disruption(result: ScenarioResult) -> float:
    """Time of the last executed overlay-perturbing event (0.0 if none).

    Events scheduled past the scenario duration never fired and are ignored.
    """
    times = [time for time, kind, _ in result.events
             if kind in DISRUPTIVE_KINDS and time <= result.duration]
    return max(times, default=0.0)


def ring_eventually_correct(result: ScenarioResult, *,
                            threshold: float = 0.95,
                            settle: float = 40.0) -> list[InvariantViolation]:
    """Live successor pointers converge to the global ring after the faults.

    Only applicable when the lowest-layer agents expose a ``successor``
    pointer (the ring/Chord family) and the scenario leaves at least
    ``settle`` fault-free seconds before the end; returns no violations
    otherwise (the property is vacuous, not violated).
    """
    experiment = result.experiment
    if result.duration - last_disruption(result) < settle:
        return []
    live = [node for node in experiment.nodes
            if node.alive and node.initialized]
    if len(live) < 2:
        return []
    if any(not hasattr(node.lowest_agent, "successor") for node in live):
        return []
    fraction = ring_successor_correctness(live)
    if fraction < threshold:
        return [InvariantViolation(
            "ring_eventually_correct",
            f"correct-successor fraction {fraction:.3f} < {threshold} over "
            f"{len(live)} live nodes, {result.duration - last_disruption(result):.0f} s "
            f"after the last disruption")]
    return []


def no_drop_on_idle_link(result: ScenarioResult) -> list[InvariantViolation]:
    """Every link that dropped from queue overflow carried a queue's worth."""
    return [InvariantViolation(
        "no_drop_on_idle_link",
        f"link {key} dropped {link.drops} packets from queue overflow after "
        f"carrying {link.bytes} B, less than the {link.queue_bytes:.0f} B "
        f"its queue holds")
        for key, link in result.experiment.emulator.link_stats().items()
        if link.drops and link.bytes < link.queue_bytes]


def _kv_states(result: ScenarioResult) -> list:
    """Every KV workload state the run's compiled models exposed."""
    if result.experiment is None:
        return []
    return [state for compiled in result.experiment.compiled_models
            if (state := getattr(compiled, "kv_state", None)) is not None]


def _kv_records(state) -> tuple[list, list]:
    """(completed puts, completed gets) from one KV workload's records."""
    records = sorted(state.observations.records)
    puts = [r for r in records if r[2] == 0]
    gets = [r for r in records if r[2] == 1]
    return puts, gets


def kv_no_phantom_reads(result: ScenarioResult) -> list[InvariantViolation]:
    """No quorum read returns a version nobody ever wrote to that key.

    Replication may lag or lose data under faults, but a version that was
    never issued against a key means the store fabricated or cross-wired
    data — a bug under any fault schedule, so this is unconditional.
    """
    violations = []
    for state in _kv_states(result):
        _puts, gets = _kv_records(state)
        count = phantom_reads([(r[3], r[4]) for r in gets],
                              state.issued_writes)
        if count:
            violations.append(InvariantViolation(
                "kv_no_phantom_reads",
                f"{count} of {len(gets)} quorum reads returned a "
                f"(key, version) no client ever wrote"))
    return violations


def kv_read_your_quorum_writes(result: ScenarioResult, *,
                               settle: float = 10.0) -> list[InvariantViolation]:
    """Under stable membership, completed writes are visible to later reads.

    The ``R + W > N`` overlap argument needs the root and its replica set to
    be the same for the write and the read, so the check applies only when
    the last disruptive event (join/crash/partition/...) settled at least
    ``settle`` seconds before the workload started; vacuous otherwise.
    """
    violations = []
    for state in _kv_states(result):
        if last_disruption(result) + settle > state.start:
            continue
        puts, gets = _kv_records(state)
        stale = quorum_staleness([(r[3], r[4], r[5]) for r in gets],
                                 [(r[3], r[4], r[6]) for r in puts])
        if stale:
            violations.append(InvariantViolation(
                "kv_read_your_quorum_writes",
                f"{stale} of {len(gets)} reads missed a write that "
                f"completed before they were issued, with stable membership "
                f"(W={state.write_quorum}, Q={state.read_quorum}, "
                f"N={state.replicas})"))
    return violations


def kv_write_durability(result: ScenarioResult) -> list[InvariantViolation]:
    """Quorum-acked writes survive fewer than ``write_quorum`` crashes.

    With ``c < W`` crash events in the whole run, at least one of a write's
    ``W`` ackers never crashed; adoption is monotone, so that node still
    holds a version at least as new.  Vacuous once crashes reach ``W`` —
    fail-stop storage is genuinely allowed to lose the data then.
    """
    violations = []
    if result.experiment is None:
        return violations
    total_crashes = sum(node.crash_count
                        for node in result.experiment.nodes)
    for state in _kv_states(result):
        if total_crashes >= state.write_quorum:
            continue
        puts, _gets = _kv_records(state)
        targets: dict[int, int] = {}
        for record in puts:
            if record[4] > targets.get(record[3], -1):
                targets[record[3]] = record[4]
        live_stores = []
        for node, store in zip(state.nodes, state.stores):
            if node.alive and node.initialized:
                store._check_epoch()
                live_stores.append(store.store)
        lost = [(key, version) for key, version in sorted(targets.items())
                if not any(s.get(key, -1) >= version for s in live_stores)]
        if lost:
            violations.append(InvariantViolation(
                "kv_write_durability",
                f"{len(lost)} quorum-acked writes (e.g. key {lost[0][0]} "
                f"version {lost[0][1]}) held by no live node, despite only "
                f"{total_crashes} crash(es) < write_quorum="
                f"{state.write_quorum}"))
    return violations


# --------------------------------------------------------- live deployments
#
# A live run has no Experiment to introspect — its nodes lived in other OS
# processes — so the live invariants are phrased over what crosses the
# results queue: the per-node reports and the aggregated metrics of a
# :class:`~repro.live.cluster.LiveClusterResult`.  They are the subset of
# the simulator's properties that survive that projection, which is exactly
# what the differential harness needs: the *same* properties, checked on
# both sides of a sim-vs-live comparison.

def live_no_duplicate_delivery(outcome) -> list[InvariantViolation]:
    """No live receiver ever saw the same workload seqno twice."""
    violations = []
    for report in outcome.per_node:
        duplicates = report["workload"]["duplicates"]
        if duplicates:
            violations.append(InvariantViolation(
                "live_no_duplicate_delivery",
                f"node {report['address']} saw {duplicates} "
                f"duplicate (receiver, seqno) deliveries"))
    return violations


def live_no_callback_errors(outcome) -> list[InvariantViolation]:
    """No LiveDriver swallowed a transition/timer exception."""
    violations = []
    for report in outcome.per_node:
        count = report.get("callback_error_count", 0)
        if count:
            first = (report.get("callback_errors") or ["?"])[0]
            violations.append(InvariantViolation(
                "live_no_callback_errors",
                f"node {report['address']} recorded {count} callback "
                f"exception(s), first: {first}"))
    return violations


def live_epoch_tracks_incarnation(outcome) -> list[InvariantViolation]:
    """A node's transport epoch equals its supervisor incarnation.

    The live analogue of :func:`epoch_monotonicity`: every respawn must
    re-key the transport demux, or a peer's stale retransmission state can
    poison the reborn node.
    """
    violations = []
    for report in outcome.per_node:
        if report.get("down") or "epoch" not in report:
            continue
        if report["epoch"] != report.get("incarnation", 0):
            violations.append(InvariantViolation(
                "live_epoch_tracks_incarnation",
                f"node {report['address']}: transport epoch "
                f"{report['epoch']} != incarnation "
                f"{report.get('incarnation', 0)}"))
    return violations


def live_no_decode_errors(outcome) -> list[InvariantViolation]:
    """Both ends speak our codec: no frame ever failed to decode."""
    violations = []
    for report in outcome.per_node:
        errors = report.get("socket", {}).get("decode_errors", 0)
        if errors:
            violations.append(InvariantViolation(
                "live_no_decode_errors",
                f"node {report['address']} failed to decode {errors} "
                f"frame(s) — codec mismatch or corruption on localhost"))
    return violations


def live_kv_no_phantom_reads(outcome) -> list[InvariantViolation]:
    """No live quorum read returned a version nobody wrote (KV runs only)."""
    count = outcome.metrics.get("workload.phantom_reads", 0.0)
    if count:
        return [InvariantViolation(
            "live_kv_no_phantom_reads",
            f"{count:.0f} quorum reads returned a (key, version) no client "
            f"ever wrote")]
    return []


#: The live invariants check_live_invariants runs, in report order.
LIVE_INVARIANTS: tuple[str, ...] = (
    "live_no_duplicate_delivery", "live_no_callback_errors",
    "live_epoch_tracks_incarnation", "live_no_decode_errors",
    "live_kv_no_phantom_reads")


def check_live_invariants(outcome) -> list[InvariantViolation]:
    """Run every live invariant against a LiveClusterResult."""
    violations = []
    violations.extend(live_no_duplicate_delivery(outcome))
    violations.extend(live_no_callback_errors(outcome))
    violations.extend(live_epoch_tracks_incarnation(outcome))
    violations.extend(live_no_decode_errors(outcome))
    violations.extend(live_kv_no_phantom_reads(outcome))
    return violations


#: The invariants check_invariants runs, in report order.
INVARIANTS: tuple[str, ...] = ("no_duplicate_delivery", "no_lost_acks",
                               "epoch_monotonicity", "ring_eventually_correct",
                               "no_drop_on_idle_link", "kv_no_phantom_reads",
                               "kv_read_your_quorum_writes",
                               "kv_write_durability")


def check_invariants(result: ScenarioResult, *,
                     ring_threshold: float = 0.95,
                     ring_settle: float = 40.0,
                     include_ring: bool = True) -> list[InvariantViolation]:
    """Run every invariant against *result*; return all violations found."""
    violations = []
    violations.extend(no_duplicate_delivery(result))
    violations.extend(no_lost_acks(result))
    violations.extend(epoch_monotonicity(result))
    if include_ring:
        violations.extend(ring_eventually_correct(
            result, threshold=ring_threshold, settle=ring_settle))
    violations.extend(no_drop_on_idle_link(result))
    violations.extend(kv_no_phantom_reads(result))
    violations.extend(kv_read_your_quorum_writes(result))
    violations.extend(kv_write_durability(result))
    return violations
