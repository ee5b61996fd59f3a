"""Runtime invariants checkable against any :class:`ScenarioResult`.

The scenario engine makes every run a pure function of ``(spec, seed)``;
this module supplies the other half of a bug-finding machine: properties
that must hold at the end of *any* scenario, however adversarial.  The
fuzzer (:mod:`repro.eval.fuzz`) asserts them over randomly generated specs;
tests assert them over the curated library; the differential harness
(:mod:`repro.eval.diff`) over live deployments.

A simulated and a live run produce the same :class:`ScenarioResult`, so one
set of checks reads both.  What a check needs decides where it applies: the
scored ``<label>.*`` metrics exist in every mode, the node process reports
(``result.per_node``) only live, and the simulated ``result.experiment``
only in simulation — a check whose input a run lacks is vacuous there.

Nine invariants:

* **no_duplicate_delivery** — no workload probe is delivered twice to the
  same receiver: the ``(stream, seqno)`` pair is unique per delivery
  (reliable transports reassemble and deduplicate; a duplicate means
  transport or dispatch state leaked across a fault).  Read off each
  workload's scored ``duplicates``.
* **no_lost_acks** — after the run quiesces, no reliable connection on a
  live node is stranded: unacknowledged in-flight segments imply an armed
  retransmission timer, queued-but-untransmitted segments imply an open
  window being consumed (the send pump never stalls with work pending), and
  a held ACK implies its transport's flush timer is armed.
* **epoch_monotonicity** — transport incarnation numbers track the node
  lifecycle exactly: a live node's transport epoch equals its crash count,
  a crashed node's equals its recover count, and no connection has observed
  a peer epoch from the future.  Live, a node process's epoch equals its
  supervisor incarnation: every respawn re-keys the transport demux.
* **no_decode_errors** — live only: both ends speak our codec, so no frame
  any node received failed to decode.
* **ring_eventually_correct** — for successor-ring protocols (agents that
  expose a ``successor`` pointer), the live membership's successor pointers
  converge to the global ring after the last fault, scored by
  :func:`~repro.eval.metrics.correct_successor_fraction` over the ring rows.
  Skipped when the scenario leaves no settle window or the protocol has no
  ring shape.
* **no_drop_on_idle_link** — a link whose queue dropped a packet has
  carried at least one full queue of bytes (``max_queue_delay × bandwidth``):
  drop-tail loss needs a backlog, and a backlog is made of packets that
  crossed the link.  History-free, and what an emulator that advances a
  queue with arrivals that have not happened yet violates first.
* **kv_no_phantom_reads** — a KV workload's quorum reads never return a
  version that no client ever wrote to that key: replication may lag or
  lose data, but it can never fabricate or cross-wire it.  Unconditional;
  read off the scored ``phantom_reads``.
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..transport.reliable import ReliableTransport
from .metrics import correct_successor_fraction, ring_rows
from .scenario import ScenarioResult, metric_labels

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


def _nodes(result: ScenarioResult) -> list:
    """The simulated nodes; none for a live run."""
    return [] if result.experiment is None else result.experiment.nodes


def _scored(result: ScenarioResult, metric: str) -> list[tuple[str, float]]:
    """``(label, value)`` of every model that scored *metric* non-zero."""
    suffix = f".{metric}"
    return [(key.removesuffix(suffix), value)
            for key, value in result.metrics.items()
            if key.endswith(suffix) and value]


def no_duplicate_delivery(result: ScenarioResult) -> list[InvariantViolation]:
    """Every workload's ``(receiver, seqno)`` deliveries are unique."""
    return [InvariantViolation(
        "no_duplicate_delivery",
        f"workload {label!r} saw {count:.0f} duplicate (receiver, seqno) "
        f"deliveries")
        for label, count in _scored(result, "duplicates")]


def no_lost_acks(result: ScenarioResult) -> list[InvariantViolation]:
    """No live reliable connection is stranded after quiesce.

    Unacked in-flight data without an armed retransmission timer would never
    be retransmitted (the segment — and its ack — is lost forever); queued
    data with an empty window would never be transmitted at all (the pump
    always fills at least one window slot); a held ACK whose transport has
    no flush timer armed would never be sent.
    """
    violations = []
    for node in _nodes(result):
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
    violations = [InvariantViolation(
        "epoch_monotonicity",
        f"node {report['address']}: transport epoch {report['epoch']} != "
        f"incarnation {report['incarnation']}")
        for report in result.per_node or ()
        if not report.get("down") and report["epoch"] != report["incarnation"]]
    nodes = _nodes(result)
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
    if result.duration - last_disruption(result) < settle:
        return []
    rows = ring_rows(_nodes(result))
    if len(rows) < 2:
        return []
    fraction = correct_successor_fraction(rows)
    if fraction < threshold:
        return [InvariantViolation(
            "ring_eventually_correct",
            f"correct-successor fraction {fraction:.3f} < {threshold} over "
            f"{len(rows)} live nodes, "
            f"{result.duration - last_disruption(result):.0f} s "
            f"after the last disruption")]
    return []


def no_drop_on_idle_link(result: ScenarioResult) -> list[InvariantViolation]:
    """Every link that dropped from queue overflow carried a queue's worth."""
    if result.experiment is None:
        return []
    return [InvariantViolation(
        "no_drop_on_idle_link",
        f"link {key} dropped {link.drops} packets from queue overflow after "
        f"carrying {link.bytes} B, less than the {link.queue_bytes:.0f} B "
        f"its queue holds")
        for key, link in result.experiment.emulator.link_stats().items()
        if link.drops and link.bytes < link.queue_bytes]


def _kv_states(result: ScenarioResult) -> list:
    """``(label, state)`` of every KV workload of a simulated run."""
    if result.experiment is None:
        return []
    compiled_models = result.experiment.compiled_models
    labels = metric_labels(compiled.label for compiled in compiled_models)
    return [(label, compiled.kv_state)
            for label, compiled in zip(labels, compiled_models)
            if hasattr(compiled, "kv_state")]


def kv_no_phantom_reads(result: ScenarioResult) -> list[InvariantViolation]:
    """No quorum read returns a version nobody ever wrote to that key.

    Replication may lag or lose data under faults, but a version that was
    never issued against a key means the store fabricated or cross-wired
    data — a bug under any fault schedule, so this is unconditional.
    """
    return [InvariantViolation(
        "kv_no_phantom_reads",
        f"{count:.0f} of {result.metrics[f'{label}.gets']:.0f} quorum reads "
        f"of workload {label!r} returned a (key, version) no client ever "
        f"wrote")
        for label, count in _scored(result, "phantom_reads")]


def kv_read_your_quorum_writes(result: ScenarioResult, *,
                               settle: float = 10.0) -> list[InvariantViolation]:
    """Under stable membership, completed writes are visible to later reads.

    The ``R + W > N`` overlap argument needs the root and its replica set to
    be the same for the write and the read, so the check applies only when
    the last disruptive event (join/crash/partition/...) settled at least
    ``settle`` seconds before the workload started; vacuous otherwise.
    """
    violations = []
    for label, state in _kv_states(result):
        stale = result.metrics[f"{label}.stale_reads"]
        if stale and last_disruption(result) + settle <= state.start:
            violations.append(InvariantViolation(
                "kv_read_your_quorum_writes",
                f"{stale:.0f} of {result.metrics[f'{label}.gets']:.0f} reads "
                f"missed a write that completed before they were issued, "
                f"with stable membership (W={state.write_quorum}, "
                f"Q={state.read_quorum}, N={state.replicas})"))
    return violations


def kv_write_durability(result: ScenarioResult) -> list[InvariantViolation]:
    """Quorum-acked writes survive fewer than ``write_quorum`` crashes.

    With ``c < W`` crash events in the whole run, at least one of a write's
    ``W`` ackers never crashed; adoption is monotone, so that node still
    holds a version at least as new.  Vacuous once crashes reach ``W`` —
    fail-stop storage is genuinely allowed to lose the data then.
    """
    violations = []
    total_crashes = sum(node.crash_count for node in _nodes(result))
    for _label, state in _kv_states(result):
        if total_crashes >= state.write_quorum:
            continue
        # The payload's stores are the replica maps of the nodes now up.
        payload = state.observations.payload()
        targets: dict[int, int] = {}
        for record in payload["records"]:
            if record[2] == 0 and record[4] > targets.get(record[3], -1):
                targets[record[3]] = record[4]
        lost = [(key, version) for key, version in sorted(targets.items())
                if not any(store.get(key, -1) >= version
                           for store in payload["stores"])]
        if lost:
            violations.append(InvariantViolation(
                "kv_write_durability",
                f"{len(lost)} quorum-acked writes (e.g. key {lost[0][0]} "
                f"version {lost[0][1]}) held by no live node, despite only "
                f"{total_crashes} crash(es) < write_quorum="
                f"{state.write_quorum}"))
    return violations


def no_decode_errors(result: ScenarioResult) -> list[InvariantViolation]:
    """Both ends speak our codec: no live node failed to decode a frame."""
    return [InvariantViolation(
        "no_decode_errors",
        f"node {report['address']} failed to decode {errors} frame(s) — "
        f"codec mismatch or corruption on localhost")
        for report in result.per_node or ()
        if (errors := report["socket"]["decode_errors"])]


#: The invariants check_invariants runs, in report order.
INVARIANTS: tuple[str, ...] = ("no_duplicate_delivery", "no_lost_acks",
                               "epoch_monotonicity", "no_decode_errors",
                               "ring_eventually_correct",
                               "no_drop_on_idle_link", "kv_no_phantom_reads",
                               "kv_read_your_quorum_writes",
                               "kv_write_durability")


def check_invariants(result: ScenarioResult, *,
                     ring_threshold: float = 0.95,
                     ring_settle: float = 40.0,
                     include_ring: bool = True) -> list[InvariantViolation]:
    """Run every invariant against *result*, simulated or live; return all
    violations found."""
    violations = []
    violations.extend(no_duplicate_delivery(result))
    violations.extend(no_lost_acks(result))
    violations.extend(epoch_monotonicity(result))
    violations.extend(no_decode_errors(result))
    if include_ring:
        violations.extend(ring_eventually_correct(
            result, threshold=ring_threshold, settle=ring_settle))
    violations.extend(no_drop_on_idle_link(result))
    violations.extend(kv_no_phantom_reads(result))
    violations.extend(kv_read_your_quorum_writes(result))
    violations.extend(kv_write_durability(result))
    return violations
