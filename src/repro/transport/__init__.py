"""Transport subsystem: TCP-like, UDP-like, and SWP service classes."""

from .base import DeliverUpcall, Segment, Transport, TransportKind, TransportStats
from .demux import TransportError, TransportHost
from .reliable import AimdWindow, FixedWindow, ReliableConnection, ReliableTransport
from .udp import UdpTransport

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
