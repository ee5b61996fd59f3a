"""Live execution: the unchanged protocol runtime over real sockets.

The paper evaluates each generated protocol twice — in simulation and in a
*live deployment* where the same generated code exchanges real packets.  This
package is the live half of the reproduction:

* :class:`~repro.live.driver.LiveDriver` — the asyncio
  implementation of the :class:`~repro.runtime.driver.Driver` contract, so
  agents, timers, failure detection, and the reliable transports run
  unmodified against real elapsed time, in spec seconds scaled by
  ``time_scale``;
* :class:`~repro.transport.udp.SocketUdpNetwork` (in the transport package) —
  the socket-backed counterpart of the network emulator, framing the same
  ``Datagram``/``Segment`` envelopes over UDP datagrams between processes;
* :class:`~repro.live.cluster.LiveCluster` — a
  :class:`~repro.eval.scenario.ScenarioSpec` on a scaled clock: the
  coordinator draws the spec's schedule as the simulator does, runs its
  fault rows by verb and scores every model with the simulator's own scorer
  into a :class:`~repro.eval.scenario.ScenarioResult`;
* :mod:`~repro.live.node` — one node process: the same draw, its own node's
  joins, group rows and :class:`~repro.eval.workload.NodeWorkload` ops, and
  one payload home per observing model;
* :mod:`~repro.live.faults` — what the fault plane adds live: the
  degrade-to-socket translation and the live-runnable verdict.

See docs/LIVE.md for the architecture and scripts/run_live.py for the CLI.
"""

from .cluster import LiveCluster, LiveClusterConfig, LiveClusterError
from .driver import LiveDriver
from .faults import LiveFaultError, live_runnable

__all__ = [
    "LiveCluster",
    "LiveClusterConfig",
    "LiveClusterError",
    "LiveDriver",
    "LiveFaultError",
    "live_runnable",
]
