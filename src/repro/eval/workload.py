"""The workload plane: one measurement workload under every driver.

A :class:`WorkloadModel` is evaluated the same way whether its nodes live in
one simulator or in N operating-system processes, because the only thing
that differs between those drivers is *where the nodes are*.  The model is
therefore split along that line:

* **draw** — :meth:`WorkloadModel.draw` is a pure function of
  ``(model, num_nodes, key_space_size, rng, horizon)``: the whole schedule
  as :class:`WorkloadOp` rows ``(time, node, verb, args, detail)`` plus the
  constants the scorer needs, in a :class:`WorkloadPlan`.  Every process
  that draws from the same RNG seed holds the identical plan.
* **issue + observe** — :class:`NodeWorkload` is one node's share: it hosts
  the node's application (:class:`~repro.apps.kv.KvStore`,
  :class:`~repro.apps.pubsub.PubSub`, or the chained probe recorder),
  carries the verbs the ops name, and books what it sent, skipped and saw
  into a :class:`WorkloadObservations`.  The simulator builds one per node
  and turns ops into ``ScenarioEvent(node=op.node)`` thunks; a live process
  builds exactly one and keeps the ops addressed to its own index.
* **score** — observations leave a process as
  :meth:`WorkloadObservations.payload` (raw, picklable) and
  :meth:`WorkloadModel.score` is the one formula over the pooled payloads
  of every process, whichever kind of process collected them.

A custom workload kind adds a branch to ``draw`` (its schedule), a verb to
:class:`NodeWorkload` (how one node issues one op) and its metrics to
``score``; no driver changes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

from ..apps.kv import KvStore
from ..apps.payload import AppPayload
from ..apps.pubsub import PubSub
from .metrics import (mean, percentile, phantom_reads, quorum_staleness,
                      replica_coverage, requests_per_second, zipf_cdf)
from .scenario import (CompiledModel, ScenarioError, ScenarioEvent,
                       ScenarioModel, resolve_index)


class WorkloadOp(NamedTuple):
    """One scheduled operation: ``getattr(share, verb)(*args)`` on the
    :class:`NodeWorkload` of node index ``node`` at offset ``time``."""

    time: float
    node: int
    verb: str
    args: tuple
    detail: str


@dataclass
class WorkloadPlan:
    """What :meth:`WorkloadModel.draw` fixes before anything runs."""

    ops: list
    #: kv: every ``(key, version)`` any client will issue (phantom reads).
    issued_writes: set = field(default_factory=set)
    #: pubsub: subscriber deliveries a loss-free run produces (coverage).
    expected: int = 0
    #: Seconds the throughput metrics are rated over.
    window: float = 1e-9


class WorkloadObservations:
    """What one process saw of one workload, whatever its kind."""

    def __init__(self) -> None:
        #: ``(seqno, driver time)`` per measured op actually issued.  The
        #: scorer counts against the union of these, so an op whose issuer
        #: died with the record of issuing it is neither sent nor lost.
        self.sent_records: list[tuple[int, float]] = []
        self.skipped = 0          # ops whose node was down at issue time
        self.deliveries = 0       # first deliveries / completed ops
        self.duplicates = 0       # same (receiver, seqno) seen twice
        self.per_receiver: dict[int, list[float]] = {}
        self._seen: set[tuple[int, int]] = set()
        #: The unit the scorer pools.  Probes and publications:
        #: ``(receiver, seqno, latency)`` per first delivery — receivers are
        #: process-owned, so (receiver, seqno) is globally unique and
        #: sorting on it gives every process count the same canonical
        #: latency order.  kv: ``(seqno, client_addr, kind_code, key,
        #: version, issued_at, completed_at, acks)`` per quorum-completed op
        #: (kind_code 0=put, 1=get); seqnos are driver-unique and an op
        #: completes where its client lives, so sorting on seqno is
        #: canonical too.
        self.records: list[tuple] = []
        #: The per-node shares reporting here (end-of-run app state).
        self.shares: list["NodeWorkload"] = []

    @property
    def sent(self) -> int:
        return len(self.sent_records)

    def record(self, receiver: int, payload: AppPayload, now: float) -> None:
        """A probe arrived at *receiver* (raw upcalls: dedup here)."""
        key = (receiver, payload.seqno)
        if key in self._seen:
            self.duplicates += 1
            return
        self._seen.add(key)
        latency = now - payload.sent_at
        self.per_receiver.setdefault(receiver, []).append(latency)
        self._first((receiver, payload.seqno, latency))

    def note(self, receiver: int, delivery) -> None:
        """A publication reached subscriber *receiver*.  The app already
        dedups, so nothing enters ``_seen``: a second set of every
        (receiver, seqno) pair is measurable resident memory."""
        self._first((receiver, delivery.seqno, delivery.latency))

    def complete(self, client: int, record) -> None:
        """A kv op issued by *client* reached its quorum."""
        self._first((record.seqno, client, 0 if record.kind == "put" else 1,
                     record.key, record.version, record.issued_at,
                     record.completed_at, record.acks))

    def _first(self, row: tuple) -> None:
        self.deliveries += 1
        self.records.append(row)

    def payload(self) -> dict:
        """This process's raw observations, as shipped to the scorer, with
        the end-of-run app state (pub/sub duplicate counts, live kv stores)
        of the nodes reporting here."""
        return {
            "sent": self.sent_records,
            "skipped": self.skipped,
            "duplicates": self.duplicates + sum(
                share.app.duplicates for share in self.shares
                if isinstance(share.app, PubSub)),
            "records": self.records,
            "stores": [store for share in self.shares
                       if (store := share.live_store()) is not None],
        }


class NodeWorkload:
    """One node's share of a workload: its app, the verbs, the accounting.

    The only place that constructs :class:`KvStore` / :class:`PubSub` or
    chains the probe recorder.  Probes are stamped, timed and booked on the
    node's driver clock: simulated time, or a live node's spec seconds from
    the zero every process of the cluster shares.
    """

    def __init__(self, node, model: "WorkloadModel", stream_id: int,
                 observations: WorkloadObservations) -> None:
        self.node = node
        self.model = model
        self.stream_id = stream_id
        self.observations = observations
        #: Installing chains over whatever handlers the node already has —
        #: application instrumentation survives being measured — so keep
        #: those for :meth:`restore`.
        self.previous = node.handlers
        self.app = None
        if model.kind == "kv":
            self.app = KvStore(node, replicas=model.replicas,
                               write_quorum=model.write_quorum,
                               read_quorum=model.read_quorum,
                               op_bytes=model.packet_bytes,
                               stream_id=stream_id)
            self.app.on_complete = partial(observations.complete,
                                           node.address)
        elif model.kind == "pubsub":
            self.app = PubSub(node, stream_id=stream_id)
            self.app.on_delivery = partial(observations.note, node.address)
        else:
            node.handlers = replace(self.previous, deliver=self._deliver)
        observations.shares.append(self)

    def restore(self) -> None:
        self.node.handlers = self.previous

    def live_store(self):
        """The kv replica state of this node if it is up, else ``None``."""
        node = self.node
        if not isinstance(self.app, KvStore) or node.crashed \
                or not node.initialized:
            return None
        self.app._check_epoch()
        return dict(self.app.store)

    def _deliver(self, payload, size, mtype) -> None:
        if isinstance(payload, AppPayload) and \
                payload.stream_id == self.stream_id:
            self.observations.record(self.node.address, payload,
                                     self.node.simulator.now)
        if self.previous.deliver is not None:
            self.previous.deliver(payload, size, mtype)

    # ----------------------------------------------------------- accounting
    def _up(self) -> bool:
        return not self.node.crashed and self.node.initialized

    def _issue(self, seqno: int) -> bool:
        """Book measured op *seqno* as sent, or as skipped if the node is
        down; only a sent op goes on the wire."""
        if not self._up():
            self.observations.skipped += 1
            return False
        self.observations.sent_records.append(
            (seqno, self.node.simulator.now))
        return True

    # ---------------------------------------------------------------- verbs
    def probe(self, seqno: int, dest_key) -> None:
        """Route to *dest_key*, or multicast to the group when it is None."""
        if not self._issue(seqno):
            return
        node, size = self.node, self.model.packet_bytes
        payload = AppPayload(seqno=seqno, sent_at=node.simulator.now,
                             source=node.address, size=size,
                             stream_id=self.stream_id)
        if dest_key is None:
            node.macedon_multicast(self.model.group, payload, size)
        else:
            node.macedon_route(dest_key, payload, size)

    def put(self, seqno: int, key: int) -> None:
        # Versions double as values: the op's driver-unique seqno, which
        # makes every read a complete consistency observation.
        if self._issue(seqno):
            self.app.put(key, seqno, seqno)

    def get(self, seqno: int, key: int) -> None:
        if self._issue(seqno):
            self.app.get(key, seqno)

    def repair(self) -> None:
        if self._up():
            self.app.repair()

    def create_topic(self, topic: int) -> None:
        if self._up():
            self.app.create_topic(topic)

    def subscribe(self, topic: int) -> None:
        if self._up():
            self.app.subscribe(topic)

    def publish(self, seqno: int, topic: int) -> None:
        if self._issue(seqno):
            self.app.publish(topic, seqno, size=self.model.packet_bytes)


@dataclass
class KvWorkloadState:
    """Compile-time handles a KV workload exposes for invariant checking.

    Attached to the compiled model as ``compiled.kv_state``; the runtime
    invariants (:mod:`repro.eval.invariants`) read it after the run.
    """

    observations: WorkloadObservations
    stores: list                # per-node KvStore instances (index order)
    replicas: int
    write_quorum: int
    read_quorum: int
    start: float


@dataclass(frozen=True)
class WorkloadModel(ScenarioModel):
    """Measurement traffic injected while the scenario unfolds.

    * ``kind="multicast"`` — a burst of ``packets`` multicast packets from
      node ``source`` to ``group`` (the NICE/SplitStream measurement
      pattern);
    * ``kind="route"`` — key lookup probes: each probe routes a payload to a
      uniformly random key from a random live node (``source=-1``) or a fixed
      one, and succeeds if *any* node delivers it — the "lookup success under
      churn" quantity;
    * ``kind="kv"`` — a replicated key/value workload: every node hosts a
      :class:`~repro.apps.kv.KvStore` (``replicas``-way replication, quorum
      ``write_quorum``/``read_quorum``) and ``packets`` put/get operations
      (``read_fraction`` reads, keys drawn Zipf(``zipf_s``) over ``keys``
      hash-space keys) are issued from random clients (the first ``clients``
      nodes; 0 = everyone).  ``source`` is ignored.  ``repair_gap > 0`` adds
      periodic anti-entropy sweeps.  Reports quorum success, throughput,
      latency, and the consistency metrics of :mod:`repro.eval.metrics`;
    * ``kind="pubsub"`` — topic pub/sub: every node hosts a
      :class:`~repro.apps.pubsub.PubSub`, ``topics`` topics are created and
      subscribed to (``fanout`` random subscribers each; 0 = everyone), then
      ``packets`` publications are multicast from ``source`` (or random
      publishers with ``source=-1``).  Requires a group-capable overlay
      (Scribe/SplitStream).

    Deliver handlers are chained onto every node when the model is applied
    and the previously registered handlers are invoked afterwards, then
    restored when the scenario finishes — application instrumentation
    survives being measured.
    """

    kind: str = "multicast"        # "multicast" | "route" | "kv" | "pubsub"
    source: int = 0                # node index; -1 = random sender per probe
    group: int = 1
    start: float = 0.0
    packets: int = 5
    gap: float = 0.5
    packet_bytes: int = 1000
    # ---- kind="kv" knobs
    keys: int = 64                 # distinct keys in the working set
    zipf_s: float = 1.1            # key-popularity skew (0 = uniform)
    read_fraction: float = 0.7     # fraction of ops that are gets
    replicas: int = 3              # N-way replication
    write_quorum: int = 2          # W acks complete a put
    read_quorum: int = 2           # Q replies complete a get (max version wins)
    clients: int = 0               # ops come from the first N nodes; 0 = all
    repair_gap: float = 0.0        # anti-entropy period; 0 = disabled
    # ---- kind="pubsub" knobs
    topics: int = 4                # number of topics
    fanout: int = 0                # subscribers per topic; 0 = every node
    #: Stream identity stamped on payloads; 0 (the default) auto-assigns a
    #: distinct id per applied workload so concurrent workloads never score
    #: each other's probes.  Auto ids start at AUTO_STREAM_BASE, well clear
    #: of the small ids application traffic conventionally uses — otherwise
    #: the recorder would cross-score app payloads as probes.
    stream_id: int = 0

    #: First auto-assigned workload stream id.
    AUTO_STREAM_BASE = 1000

    def validate(self) -> None:
        """Reject a malformed model before anything is drawn or installed."""
        if self.kind not in ("multicast", "route", "kv", "pubsub"):
            raise ScenarioError(f"unknown workload kind {self.kind!r}")
        if self.kind == "kv":
            if self.keys < 1:
                raise ScenarioError("kv workload needs keys >= 1")
            if not 0.0 <= self.read_fraction <= 1.0:
                raise ScenarioError("read_fraction must be within [0, 1]")
            if self.zipf_s < 0:
                raise ScenarioError("zipf_s must be >= 0")
        elif self.kind == "pubsub":
            if self.topics < 1:
                raise ScenarioError("pubsub workload needs topics >= 1")
            if self.fanout < 0:
                raise ScenarioError("fanout must be >= 0 (0 = every node)")

    def weakened(self):
        variants = []
        if self.packets > 10:
            variants.append(replace(self, packets=self.packets // 2))
        if self.kind == "kv" and self.repair_gap:
            variants.append(replace(self, repair_gap=0.0))
        return variants

    # ------------------------------------------------------------------ draw
    def draw(self, num_nodes: int, key_space_size: int, rng,
             horizon: float) -> WorkloadPlan:
        """The whole schedule, pre-drawn so the RNG stream does not depend
        on how events interleave at run time — or on which process runs
        them.  Op times are offsets on the model's own ``start``/``gap``
        timeline; measured ops carry seqnos ``0..packets-1`` in op order."""
        self.validate()
        plan = WorkloadPlan([], window=max(horizon - self.start, 1e-9))
        ops = plan.ops
        if self.kind == "kv":
            # Keys live in the overlay hash space; popularity is Zipf over
            # their ranks.
            key_ids = [rng.randrange(key_space_size)
                       for _ in range(self.keys)]
            key_cdf = zipf_cdf(self.keys, self.zipf_s)
            client_pool = min(self.clients, num_nodes) if self.clients > 0 \
                else num_nodes
            for seqno in range(self.packets):
                node = rng.randrange(client_pool)
                key = key_ids[bisect.bisect_left(key_cdf, rng.random())]
                verb = "get" if rng.random() < self.read_fraction else "put"
                if verb == "put":
                    plan.issued_writes.add((key, seqno))
                ops.append(WorkloadOp(
                    self.start + seqno * self.gap, node, verb, (seqno, key),
                    f"kv {verb} {seqno} key {key} from node {node}"))
            if self.repair_gap > 0:
                sweep_at = self.start + self.repair_gap
                while sweep_at < horizon:
                    ops.extend(WorkloadOp(
                        sweep_at, node, "repair", (),
                        f"node {node} anti-entropy sweep")
                        for node in range(num_nodes))
                    sweep_at += self.repair_gap
        elif self.kind == "pubsub":
            self._draw_pubsub(plan, num_nodes, rng)
        else:
            for seqno in range(self.packets):
                if self.source >= 0:
                    sender = resolve_index(num_nodes, self.source,
                                           "workload source")
                else:
                    sender = rng.randrange(num_nodes)
                dest_key = rng.randrange(key_space_size) \
                    if self.kind == "route" else None
                ops.append(WorkloadOp(
                    self.start + seqno * self.gap, sender, "probe",
                    (seqno, dest_key),
                    f"{self.kind} probe {seqno} from node {sender}"))
        return plan

    def _draw_pubsub(self, plan: WorkloadPlan, num_nodes: int, rng) -> None:
        # Choreography: create every topic at ``start``, stagger the
        # subscriber joins, then publish after the trees have had a moment
        # to form.
        ops = plan.ops
        creator = resolve_index(num_nodes, max(self.source, 0),
                                "pubsub creator")
        spacing = 0.25
        subscribers: list[list[int]] = []
        for _topic in range(self.topics):
            if 0 < self.fanout < num_nodes:
                members = sorted(rng.sample(range(num_nodes), self.fanout))
            else:
                members = list(range(num_nodes))
            subscribers.append(members)
        max_members = max(len(members) for members in subscribers)
        publish_start = self.start + spacing * (max_members + 1) + 2.0
        for topic, members in enumerate(subscribers):
            ops.append(WorkloadOp(
                self.start, creator, "create_topic", (topic,),
                f"node {creator} creates topic {topic}"))
            ops.extend(WorkloadOp(
                self.start + (offset + 1) * spacing, member, "subscribe",
                (topic,), f"node {member} subscribes to topic {topic}")
                for offset, member in enumerate(members))
        for seqno in range(self.packets):
            topic = rng.randrange(self.topics)
            publisher = creator if self.source >= 0 \
                else rng.randrange(num_nodes)
            # Scribe never redelivers to the origin, so a subscribed
            # publisher does not count toward its own publication.
            plan.expected += sum(1 for member in subscribers[topic]
                                 if member != publisher)
            ops.append(WorkloadOp(
                publish_start + seqno * self.gap, publisher, "publish",
                (seqno, topic),
                f"publish {seqno} on topic {topic} from node {publisher}"))

    # ----------------------------------------------------------------- score
    def delivered(self, payloads: list) -> set[int]:
        """Seqnos of the measured ops some process saw complete."""
        at = 0 if self.kind == "kv" else 1
        return {record[at] for p in payloads for record in p["records"]}

    def score(self, plan: WorkloadPlan, payloads: list) -> dict[str, float]:
        """Metrics from the pooled payloads of every process that ran the
        workload — the one formula, in every mode.  Success counts against
        the ops *known* sent: a delivery whose send record died with its
        sender is left out of both sides of the ratio."""
        sent = {seqno for p in payloads for seqno, _when in p["sent"]}
        success = len(self.delivered(payloads) & sent) / len(sent) \
            if sent else 0.0
        records = [record for p in payloads for record in p["records"]]
        metrics = {"sent": float(len(sent)),
                   "skipped": float(sum(p["skipped"] for p in payloads))}
        if self.kind == "kv":
            # Each client (and each store) is owned by exactly one process,
            # so pooling is a disjoint union; sorting records on the
            # globally unique seqno gives every process count the identical
            # canonical accumulation order.
            records.sort()
            latencies = [r[6] - r[5] for r in records]
            puts = [r for r in records if r[2] == 0]
            gets = [r for r in records if r[2] == 1]
            writes = [(r[3], r[4], r[6]) for r in puts]
            targets: dict[int, int] = {}
            for key, version, _completed_at in writes:
                if version > targets.get(key, -1):
                    targets[key] = version
            metrics.update({
                "completed": float(len(records)),
                "puts": float(len(puts)),
                "gets": float(len(gets)),
                "quorum_success": success,
                # The name every other kind reports it under, so one
                # tolerance table reads kv runs too.
                "success_ratio": success,
                "requests_per_sec": requests_per_second(len(records),
                                                        plan.window),
                "latency_mean": mean(latencies),
                "latency_p95": percentile(latencies, 0.95),
                "stale_reads": float(quorum_staleness(
                    [(r[3], r[4], r[5]) for r in gets], writes)),
                "phantom_reads": float(phantom_reads(
                    [(r[3], r[4]) for r in gets], plan.issued_writes)),
                "replica_coverage": replica_coverage(
                    [store for p in payloads for store in p["stores"]],
                    targets, self.replicas),
            })
            return metrics
        if self.kind == "pubsub" or len(payloads) > 1:
            # One process saw every probe arrive, in arrival order.  Several
            # each saw their own receivers': sort on the globally unique
            # (receiver, seqno) key, so the latency order — and therefore
            # the float accumulation in mean() — is the same canonical
            # order for every process count.
            records.sort(key=lambda r: (r[0], r[1]))
        latencies = [latency for _receiver, _seqno, latency in records]
        metrics.update({
            "deliveries": float(len(records)),
            "duplicates": float(sum(p["duplicates"] for p in payloads)),
            "success_ratio": success,
            "latency_mean": mean(latencies),
            "latency_p95": percentile(latencies, 0.95),
        })
        if self.kind == "pubsub":
            metrics.update({
                "expected": float(plan.expected),
                "coverage": (len(records) / plan.expected)
                if plan.expected else 0.0,
                "publishes_per_sec": requests_per_second(len(sent),
                                                         plan.window),
            })
        return metrics

    # ----------------------------------------------------------- simulation
    def claim_stream(self, used: set) -> int:
        """Claim this workload's stream id in *used*, the ids the run's
        other workloads hold: ``stream_id``, or the first free one from
        :attr:`AUTO_STREAM_BASE`."""
        if self.stream_id:
            if self.stream_id in used:
                raise ScenarioError(
                    f"workload stream_id {self.stream_id} used twice; each "
                    f"concurrent workload needs its own stream")
            stream_id = self.stream_id
        else:
            stream_id = self.AUTO_STREAM_BASE
            while stream_id in used:
                stream_id += 1
        used.add(stream_id)
        return stream_id

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        nodes = experiment.nodes
        # Drawn (and so validated) before anything is claimed or installed.
        plan = self.draw(len(nodes), nodes[0].lowest_agent.key_space.size,
                         rng, horizon)
        stream_id = self.claim_stream(experiment.workload_streams)
        observations = WorkloadObservations()
        shares = [NodeWorkload(node, self, stream_id, observations)
                  for node in nodes]
        events = [ScenarioEvent(
            op.time, "kv-repair" if op.verb == "repair" else self.kind,
            op.detail, partial(getattr(shares[op.node], op.verb), *op.args),
            node=op.node) for op in plan.ops]
        # The events now hold the schedule; keeping the drawn rows as well
        # would hold it in memory twice for the whole run.
        plan.ops = []

        def _restore() -> None:
            for share in shares:
                share.restore()

        compiled = CompiledModel(
            self.label or self.default_label(), events,
            payload=observations.payload,
            score=partial(self.score, plan), restore=_restore, model=self)
        compiled.plan = plan                  # type: ignore[attr-defined]
        compiled.observations = observations  # type: ignore[attr-defined]
        if self.kind == "kv":
            compiled.kv_state = KvWorkloadState(  # type: ignore[attr-defined]
                observations=observations,
                stores=[share.app for share in shares],
                replicas=self.replicas, write_quorum=self.write_quorum,
                read_quorum=self.read_quorum, start=self.start)
        return compiled
