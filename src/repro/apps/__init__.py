"""The application layer over the ``macedon_*`` boundary.

A replicated key/value store (:class:`KvStore`) and topic pub/sub
(:class:`PubSub`), plus the payloads they and the measurement probes carry.
An app attaches to its node as the node's deliver handler — the paper's
``macedon_register_handlers`` surface — and hands every payload that is not
its own to the handlers it replaced.  Measurement traffic — the route probes
and multicast streams of the paper's figures — is not an app: it is a
:class:`~repro.eval.workload.WorkloadModel`, which hosts these apps for its
``kv`` and ``pubsub`` kinds.
"""

from .kv import KvOpRecord, KvStore
from .payload import AppPayload, KvPayload, TopicPayload
from .pubsub import PubSub, TopicDelivery

__all__ = [
    "AppPayload",
    "KvOpRecord",
    "KvPayload",
    "KvStore",
    "PubSub",
    "TopicDelivery",
    "TopicPayload",
]
