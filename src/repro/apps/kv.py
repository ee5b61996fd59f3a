"""Replicated key/value store served over a key-routed overlay.

The store is the paper's missing application layer: clients issue ``put`` and
``get`` operations against the MACEDON API, the overlay routes each key to
its root (the node responsible for the key in the hash space), and the root
replicates writes to its ``replicas - 1`` successor/leaf-set neighbors.
Clients complete a write after ``write_quorum`` acknowledgements and a read
after ``read_quorum`` replies (result = highest version seen), the classic
``R + W > N`` quorum recipe — so a read issued after a write completed
overlaps the write set on at least one replica while the membership holds.

Values are the versions themselves: versions are globally unique and
monotonically assigned by the driver, so "read returned version v" is a
complete consistency observation and the store never ships opaque bytes.

Fail-stop semantics: a crash loses the node's store (factory-reset recovery,
as in the paper's ModelNet kill/restart runs).  The app detects its own
restart lazily by comparing an epoch against ``node.crash_count`` — handler
registrations survive recovery, state must not.  A route-based anti-entropy
pass (:meth:`KvStore.repair`) re-routes every stored key toward its current
root, which migrates data to late-joining roots and refills recovered
replicas.

Every message is a :class:`~repro.apps.payload.KvPayload` riding
``macedon_route`` (client -> root) or ``macedon_routeIP`` (root -> replica,
replica -> client), so the same class runs unchanged over Chord, Pastry, or
the generic ring — and in simulation or live over sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..runtime.node import MacedonNode
from .payload import (KV_GET, KV_GET_READ, KV_GET_REPLY, KV_PUT, KV_PUT_ACK,
                      KV_PUT_REPLICATE, KV_REPAIR, KvPayload)

#: ``source`` value marking replication traffic with no owning client (the
#: anti-entropy path); real host addresses start at 1.
NO_CLIENT = 0


@dataclass
class KvOpRecord:
    """One completed client operation, for throughput/consistency accounting."""

    kind: str            # "put" | "get"
    key: int
    seqno: int
    version: int         # put: version written; get: highest version read
    issued_at: float
    completed_at: float
    acks: int            # distinct repliers at completion time

    @property
    def latency(self) -> float:
        return self.completed_at - self.issued_at


@dataclass
class _Pending:
    """A client-side operation waiting for its quorum."""

    kind: str
    key: int
    version: int         # put: version being written; get: best version so far
    issued_at: float
    repliers: set = field(default_factory=set)


class KvStore:
    """The replicated KV store role of one overlay node (client + server).

    Construction makes :meth:`on_deliver` the node's deliver handler; the
    handlers the node had before stay in :attr:`previous` and receive every
    payload that is not this store's."""

    def __init__(self, node: MacedonNode, *, replicas: int = 3,
                 write_quorum: int = 2, read_quorum: int = 2,
                 op_bytes: int = 100, stream_id: int = 0) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not 1 <= write_quorum <= replicas or not 1 <= read_quorum <= replicas:
            raise ValueError(
                f"quorums must be within 1..replicas={replicas} "
                f"(got W={write_quorum}, Q={read_quorum})")
        self.replicas = replicas
        self.write_quorum = write_quorum
        self.read_quorum = read_quorum
        self.op_bytes = op_bytes
        self.stream_id = stream_id
        #: key -> highest version adopted (the replica state of this node).
        self.store: dict[int, int] = {}
        #: seqno -> in-flight client operation (seqnos are driver-unique).
        self.pending: dict[int, _Pending] = {}
        #: Called with each :class:`KvOpRecord` the moment its quorum lands.
        self.on_complete: Optional[Callable[[KvOpRecord], None]] = None
        self.node = node
        self._epoch = node.crash_count
        self.previous = node.handlers
        node.handlers = replace(self.previous, deliver=self.on_deliver)

    # ------------------------------------------------------------- fail-stop
    def _check_epoch(self) -> None:
        """Wipe state after a crash/recover cycle (fail-stop loses the store).

        Handlers survive :meth:`MacedonNode.recover` but replica state must
        not; the epoch comparison makes the wipe lazy and idempotent.
        """
        if self.node.crash_count != self._epoch:
            self._epoch = self.node.crash_count
            self.store.clear()
            self.pending.clear()

    # ------------------------------------------------------------ client API
    def put(self, key: int, version: int, seqno: int) -> None:
        """Write ``key := version``; completes after ``write_quorum`` acks."""
        self._check_epoch()
        now = self.node.simulator.now
        self.pending[seqno] = _Pending(kind="put", key=key, version=version,
                                       issued_at=now)
        payload = KvPayload(op=KV_PUT, key=key, version=version, seqno=seqno,
                            sent_at=now, source=self.node.address,
                            size=self.op_bytes, stream_id=self.stream_id)
        self.node.macedon_route(key, payload, self.op_bytes)

    def get(self, key: int, seqno: int) -> None:
        """Read ``key``; completes after ``read_quorum`` replies (max wins)."""
        self._check_epoch()
        now = self.node.simulator.now
        self.pending[seqno] = _Pending(kind="get", key=key, version=-1,
                                       issued_at=now)
        payload = KvPayload(op=KV_GET, key=key, version=-1, seqno=seqno,
                            sent_at=now, source=self.node.address,
                            size=self.op_bytes, stream_id=self.stream_id)
        self.node.macedon_route(key, payload, self.op_bytes)

    def repair(self) -> None:
        """Anti-entropy: re-route every stored key toward its current root.

        The root (which may have changed since the write — late joins, heals)
        adopts anything newer and pushes it to its own replica set, so data
        migrates to the nodes now responsible for it.
        """
        self._check_epoch()
        now = self.node.simulator.now
        for key, version in sorted(self.store.items()):
            payload = KvPayload(op=KV_REPAIR, key=key, version=version,
                                seqno=0, sent_at=now, source=NO_CLIENT,
                                size=self.op_bytes, stream_id=self.stream_id)
            self.node.macedon_route(key, payload, self.op_bytes)

    # -------------------------------------------------------------- replicas
    def replica_targets(self) -> list[int]:
        """Addresses of this root's ``replicas - 1`` closest ring neighbors.

        Successor first (Chord / the generic ring), then leaf-set / ring-set
        members (Pastry / Chord) in ascending address order — the
        deterministic successor-list shape the paper's leaf-set replication
        uses.  Crashed neighbors simply drop the replicate (fail-stop).
        """
        targets: list[int] = []
        seen = {self.node.address}

        def add(address) -> None:
            if isinstance(address, int) and address > 0 and address not in seen:
                seen.add(address)
                targets.append(address)

        for agent in self.node.stack:
            add(getattr(agent, "successor", None))
        for attr in ("leafset", "ring_set"):
            for agent in self.node.stack:
                nbr_set = getattr(agent, attr, None)
                if nbr_set is not None and hasattr(nbr_set, "addresses"):
                    for address in sorted(nbr_set.addresses()):
                        add(address)
        return targets[: self.replicas - 1]

    def _adopt(self, key: int, version: int) -> bool:
        if version > self.store.get(key, -1):
            self.store[key] = version
            return True
        return False

    def _reply(self, dest: int, payload: KvPayload) -> None:
        if dest == self.node.address:
            # Client and root are the same node: deliver locally instead of
            # relying on loopback transport.
            self.on_deliver(payload, payload.size, "ipdata")
            return
        self.node.macedon_routeIP(dest, payload, payload.size)

    # ----------------------------------------------------------------- hooks
    def on_deliver(self, payload, size, mtype) -> None:
        if not isinstance(payload, KvPayload) or \
                payload.stream_id != self.stream_id:
            if self.previous.deliver is not None:
                self.previous.deliver(payload, size, mtype)
            return
        self._check_epoch()
        handler = {
            KV_PUT: self._on_put,
            KV_PUT_REPLICATE: self._on_put_replicate,
            KV_PUT_ACK: self._on_put_ack,
            KV_GET: self._on_get,
            KV_GET_READ: self._on_get_read,
            KV_GET_REPLY: self._on_get_reply,
            KV_REPAIR: self._on_repair,
        }.get(payload.op)
        if handler is not None:
            handler(payload)

    # ------------------------------------------------------------- root side
    def _replicate(self, payload: KvPayload, source: int) -> None:
        replicate = KvPayload(op=KV_PUT_REPLICATE, key=payload.key,
                              version=payload.version, seqno=payload.seqno,
                              sent_at=payload.sent_at, source=source,
                              replier=self.node.address, size=payload.size,
                              stream_id=self.stream_id)
        for target in self.replica_targets():
            self._reply(target, replicate)

    def _on_put(self, payload: KvPayload) -> None:
        """Root: adopt, ack the client, replicate to the neighbor set."""
        self._adopt(payload.key, payload.version)
        self._reply(payload.source, KvPayload(
            op=KV_PUT_ACK, key=payload.key, version=payload.version,
            seqno=payload.seqno, sent_at=payload.sent_at,
            source=payload.source, replier=self.node.address,
            size=payload.size, stream_id=self.stream_id))
        self._replicate(payload, payload.source)

    def _on_put_replicate(self, payload: KvPayload) -> None:
        """Replica: adopt and ack the owning client directly."""
        self._adopt(payload.key, payload.version)
        if payload.source != NO_CLIENT:
            self._reply(payload.source, KvPayload(
                op=KV_PUT_ACK, key=payload.key, version=payload.version,
                seqno=payload.seqno, sent_at=payload.sent_at,
                source=payload.source, replier=self.node.address,
                size=payload.size, stream_id=self.stream_id))

    def _on_get(self, payload: KvPayload) -> None:
        """Root: answer with the local version, fan the read to replicas."""
        self._reply(payload.source, KvPayload(
            op=KV_GET_REPLY, key=payload.key,
            version=self.store.get(payload.key, -1), seqno=payload.seqno,
            sent_at=payload.sent_at, source=payload.source,
            replier=self.node.address, size=payload.size,
            stream_id=self.stream_id))
        read = KvPayload(op=KV_GET_READ, key=payload.key, version=-1,
                         seqno=payload.seqno, sent_at=payload.sent_at,
                         source=payload.source, replier=self.node.address,
                         size=payload.size, stream_id=self.stream_id)
        for target in self.replica_targets():
            self._reply(target, read)

    def _on_get_read(self, payload: KvPayload) -> None:
        """Replica: report the local version straight to the client."""
        self._reply(payload.source, KvPayload(
            op=KV_GET_REPLY, key=payload.key,
            version=self.store.get(payload.key, -1), seqno=payload.seqno,
            sent_at=payload.sent_at, source=payload.source,
            replier=self.node.address, size=payload.size,
            stream_id=self.stream_id))

    def _on_repair(self, payload: KvPayload) -> None:
        """Root: adopt anti-entropy data and push it to the replica set.

        The push carries the root's *current* version, not the incoming one:
        a sweep from a stale ex-replica must refresh the replica set, never
        re-propagate the stale write."""
        self._adopt(payload.key, payload.version)
        current = KvPayload(op=payload.op, key=payload.key,
                            version=self.store[payload.key],
                            seqno=payload.seqno, sent_at=payload.sent_at,
                            source=payload.source, size=payload.size,
                            stream_id=self.stream_id)
        self._replicate(current, NO_CLIENT)

    # ----------------------------------------------------------- client side
    def _complete(self, seqno: int, pending: _Pending) -> None:
        del self.pending[seqno]
        record = KvOpRecord(kind=pending.kind, key=pending.key, seqno=seqno,
                            version=pending.version,
                            issued_at=pending.issued_at,
                            completed_at=self.node.simulator.now,
                            acks=len(pending.repliers))
        if self.on_complete is not None:
            self.on_complete(record)

    def _on_put_ack(self, payload: KvPayload) -> None:
        pending = self.pending.get(payload.seqno)
        if pending is None or pending.kind != "put" or \
                payload.replier in pending.repliers:
            return
        pending.repliers.add(payload.replier)
        if len(pending.repliers) >= self.write_quorum:
            self._complete(payload.seqno, pending)

    def _on_get_reply(self, payload: KvPayload) -> None:
        pending = self.pending.get(payload.seqno)
        if pending is None or pending.kind != "get" or \
                payload.replier in pending.repliers:
            return
        pending.repliers.add(payload.replier)
        if payload.version > pending.version:
            pending.version = payload.version
        if len(pending.repliers) >= self.read_quorum:
            self._complete(payload.seqno, pending)
