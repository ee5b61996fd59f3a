"""Transport subsystem: TCP-like, UDP-like, and SWP service classes.

:mod:`.base` holds the envelopes and the :class:`Transport` base,
:mod:`.best_effort` the ``UDP`` kind, :mod:`.reliable` the windowed ``TCP``
and ``SWP`` kinds, and :mod:`.demux` the per-host :class:`TransportHost`.
:mod:`.udp` holds the live socket network; this package does not import it,
so a simulated run never loads :mod:`asyncio`.
"""

from .base import DeliverUpcall, Segment, Transport, TransportKind, TransportStats
from .demux import TransportError, TransportHost
from .reliable import AimdWindow, FixedWindow, ReliableConnection, ReliableTransport
from .best_effort import UdpTransport

__all__ = [
    "DeliverUpcall",
    "Segment",
    "Transport",
    "TransportKind",
    "TransportStats",
    "TransportError",
    "TransportHost",
    "AimdWindow",
    "FixedWindow",
    "ReliableConnection",
    "ReliableTransport",
    "UdpTransport",
]
