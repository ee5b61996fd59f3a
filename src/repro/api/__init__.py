"""The overlay-generic MACEDON API's application-side handler types.

The API calls themselves (Figure 3 of the paper) are the ``macedon_*``
methods of :class:`~repro.runtime.node.MacedonNode`, under the paper's names.
"""

from .handlers import DeliverHandler, ForwardHandler, Handlers, NotifyHandler, UpcallHandler

__all__ = [
    "DeliverHandler",
    "ForwardHandler",
    "Handlers",
    "NotifyHandler",
    "UpcallHandler",
]
