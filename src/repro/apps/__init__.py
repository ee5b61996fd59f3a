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

from .._lazy import lazy_front

#: Public name -> the submodule it is imported from on first use: a codec
#: that needs only the payload records loads neither app nor the node.
_EXPORTS = {
    "KvOpRecord": ".kv",
    "KvStore": ".kv",
    "AppPayload": ".payload",
    "KvPayload": ".payload",
    "TopicPayload": ".payload",
    "PubSub": ".pubsub",
    "TopicDelivery": ".pubsub",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_front(globals(), _EXPORTS)
