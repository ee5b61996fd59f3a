"""Emulated network substrate (the ModelNet analogue).

Public surface:

* :class:`~repro.network.topology.Topology` and the generators
  :func:`~repro.network.topology.transit_stub_topology`,
  :func:`~repro.network.topology.multi_site_topology`,
  :func:`~repro.network.topology.dumbbell_topology`;
* :class:`~repro.network.emulator.NetworkEmulator` — packet delivery
  with queueing, congestion, and loss;
* :class:`~repro.network.router.Router` — global shortest-path routing and
  latency queries used by the evaluation framework.
"""

from .addressing import AddressAllocator, AddressError, HostAddress, format_address, parse_address
from .emulator import EmulatorStats, NetworkEmulator
from .links import DirectedLink
from .packet import HEADER_BYTES, Packet
from .router import Router, RoutingError
from .topology import (
    Topology,
    TopologyError,
    TopologyProfile,
    LinkProfile,
    dumbbell_topology,
    multi_site_topology,
    transit_stub_topology,
)

__all__ = [
    "AddressAllocator",
    "AddressError",
    "HostAddress",
    "format_address",
    "parse_address",
    "EmulatorStats",
    "NetworkEmulator",
    "DirectedLink",
    "HEADER_BYTES",
    "Packet",
    "Router",
    "RoutingError",
    "Topology",
    "TopologyError",
    "TopologyProfile",
    "LinkProfile",
    "dumbbell_topology",
    "multi_site_topology",
    "transit_stub_topology",
]
