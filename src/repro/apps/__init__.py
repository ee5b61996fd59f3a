"""The application layer over the ``macedon_*`` boundary.

A replicated key/value store (:class:`KvStore`) and topic pub/sub
(:class:`PubSub`), both written against :class:`AppBase`, the typed hook
surface every app here subclasses, plus the payloads they and the
measurement probes carry.  Measurement traffic — the route probes and
multicast streams of the paper's figures — is not an app: it is a
:class:`~repro.eval.workload.WorkloadModel`, which hosts these apps for its
``kv`` and ``pubsub`` kinds.
"""

from .base import AppBase
from .kv import KvOpRecord, KvStore
from .payload import AppPayload, KvPayload, TopicPayload
from .pubsub import PubSub, TopicDelivery

__all__ = [
    "AppBase",
    "AppPayload",
    "KvOpRecord",
    "KvPayload",
    "KvStore",
    "PubSub",
    "TopicDelivery",
    "TopicPayload",
]
