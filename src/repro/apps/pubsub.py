"""Topic-based publish/subscribe over the overlay's group primitives.

A topic is one multicast group: subscribing joins ``group_base + topic``
(Scribe builds the per-group dissemination tree; SplitStream stripes it),
and publishing multicasts a :class:`~repro.apps.payload.TopicPayload` to the
group.  The app is a thin, measurable veneer: it reports every first
delivery per publication with its end-to-end latency to ``on_delivery``,
counts duplicates, and leaves tree construction entirely to the overlay —
which is the point: the same class runs over any group-capable MACEDON
stack, in simulation or live.

Fail-stop: a crash loses the node's group memberships with the rest of its
protocol state; the app's subscription set is wiped lazily on the next
upcall (epoch check against ``node.crash_count``) so a driver can observe
the loss and re-subscribe.  The duplicate count is a measurement, not
protocol state, and survives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..runtime.node import MacedonNode
from .payload import TopicPayload

#: Default first topic group id, clear of the small ids scenario group
#: models conventionally use.
TOPIC_GROUP_BASE = 4100


@dataclass(frozen=True)
class TopicDelivery:
    """One publication received by one subscriber (first copy only)."""

    topic: int
    seqno: int
    source: int
    received_at: float
    latency: float


class PubSub:
    """The pub/sub role of one overlay node (publisher and/or subscriber).

    Construction makes :meth:`on_deliver` the node's deliver handler; the
    handlers the node had before stay in :attr:`previous` and receive every
    payload that is not this app's."""

    def __init__(self, node: MacedonNode, *,
                 group_base: int = TOPIC_GROUP_BASE,
                 stream_id: int = 0) -> None:
        self.group_base = group_base
        self.stream_id = stream_id
        self.subscriptions: set[int] = set()
        self.duplicates = 0
        #: Called with each :class:`TopicDelivery` as it lands.
        self.on_delivery: Optional[Callable[[TopicDelivery], None]] = None
        self._seen: set[tuple[int, int]] = set()   # (source, seqno) delivered
        self.node = node
        self._epoch = node.crash_count
        self.previous = node.handlers
        node.handlers = replace(self.previous, deliver=self.on_deliver)

    def group_of(self, topic: int) -> int:
        return self.group_base + int(topic)

    # ------------------------------------------------------------- fail-stop
    def _check_epoch(self) -> None:
        if self.node.crash_count != self._epoch:
            self._epoch = self.node.crash_count
            # Group membership died with the protocol state.
            self.subscriptions.clear()

    # ------------------------------------------------------------ client API
    def create_topic(self, topic: int) -> None:
        self._check_epoch()
        self.node.macedon_create_group(self.group_of(topic))

    def subscribe(self, topic: int) -> None:
        self._check_epoch()
        self.node.macedon_join(self.group_of(topic))
        self.subscriptions.add(int(topic))

    def unsubscribe(self, topic: int) -> None:
        self._check_epoch()
        self.node.macedon_leave(self.group_of(topic))
        self.subscriptions.discard(int(topic))

    def publish(self, topic: int, seqno: int, size: int = 1000) -> None:
        """Multicast one publication; ``seqno`` must be publisher-unique."""
        self._check_epoch()
        payload = TopicPayload(topic=int(topic), seqno=seqno,
                               sent_at=self.node.simulator.now,
                               source=self.node.address,
                               size=size, stream_id=self.stream_id)
        self.node.macedon_multicast(self.group_of(topic), payload, size)

    # ----------------------------------------------------------------- hooks
    def on_deliver(self, payload, size, mtype) -> None:
        if not isinstance(payload, TopicPayload) or \
                payload.stream_id != self.stream_id:
            if self.previous.deliver is not None:
                self.previous.deliver(payload, size, mtype)
            return
        self._check_epoch()
        if (payload.source, payload.seqno) in self._seen:
            self.duplicates += 1
            return
        self._seen.add((payload.source, payload.seqno))
        now = self.node.simulator.now
        delivery = TopicDelivery(topic=payload.topic, seqno=payload.seqno,
                                 source=payload.source, received_at=now,
                                 latency=now - payload.sent_at)
        if self.on_delivery is not None:
            self.on_delivery(delivery)
