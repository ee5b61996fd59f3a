"""Application upcall handlers.

The paper's ``macedon_register_handlers()`` lets an application install four
handlers: ``forward`` (called at every routing hop), ``deliver`` (called at
the final destination), ``notify`` (neighbor-set changes), and a generic
extensible ``upcall`` handler.  At least one handler is needed for the
application to receive data; all-None handlers are valid when only overlay
construction is being evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

#: deliver(payload, size, mtype) -> None
DeliverHandler = Callable[[Any, int, Any], None]
#: forward(payload, size, mtype, next_hop, next_hop_key) -> bool (False quashes)
ForwardHandler = Callable[[Any, int, Any, Optional[int], Optional[int]], bool]
#: notify(nbr_type, neighbors) -> None
NotifyHandler = Callable[[int, list[int]], None]
#: upcall(operation, arg) -> Any
UpcallHandler = Callable[[Any, Any], Any]


@dataclass
class Handlers:
    """The set of application handlers registered with one node."""

    deliver: Optional[DeliverHandler] = None
    forward: Optional[ForwardHandler] = None
    notify: Optional[NotifyHandler] = None
    upcall: Optional[UpcallHandler] = None
