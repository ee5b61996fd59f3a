"""Live execution: the unchanged protocol runtime over real sockets.

The paper evaluates each generated protocol twice — in simulation and in a
*live deployment* where the same generated code exchanges real packets.  This
package is the live half of the reproduction:

* :class:`~repro.live.driver.LiveDriver` — the wall-clock asyncio
  implementation of the :class:`~repro.runtime.driver.Driver` contract, so
  agents, timers, failure detection, and the reliable transports run
  unmodified against real elapsed time;
* :class:`~repro.transport.udp.SocketUdpNetwork` (in the transport package) —
  the socket-backed counterpart of the network emulator, framing the same
  ``Datagram``/``Segment`` envelopes over UDP datagrams between processes;
* :class:`~repro.live.cluster.LiveCluster` — the multi-process harness that
  boots N localhost nodes, drives a join wave plus each node's share of a
  :class:`~repro.eval.workload.WorkloadModel` (the scenario engine's own
  draw / per-node share / payload), and scores the pooled observations with
  the model's own scorer;
* :mod:`~repro.live.faults` — the fault plane: scenario crash/churn/
  partition/degrade models compiled onto wall-clock as real ``SIGKILL``
  schedules (with supervised respawn) and socket fault-table rules.

See docs/LIVE.md for the architecture and scripts/run_live.py for the CLI.
"""

from .cluster import LiveCluster, LiveClusterConfig, LiveClusterError, LiveClusterResult
from .driver import LiveDriver
from .faults import (DegradeFault, KillNode, LiveFaultError, PartitionFault,
                     compile_fault_models, fault_horizon, live_runnable)

__all__ = [
    "DegradeFault",
    "KillNode",
    "LiveCluster",
    "LiveClusterConfig",
    "LiveClusterError",
    "LiveClusterResult",
    "LiveDriver",
    "LiveFaultError",
    "PartitionFault",
    "compile_fault_models",
    "fault_horizon",
    "live_runnable",
]
