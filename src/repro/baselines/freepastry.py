"""FreePastry/RMI baseline (the comparison system in Figure 11).

The MACEDON paper attributes FreePastry's higher per-packet latency largely to
Java RMI overhead and could not run it beyond ~100 participants (two per
physical machine) for memory reasons.  This baseline runs the same Pastry
routing algorithm but models those runtime costs explicitly:

* every message transmission pays a fixed marshalling/dispatch delay
  (:attr:`FreePastryAgent.RMI_OVERHEAD` seconds), charged before the packet
  enters the network — the RMI serialization + remote dispatch cost;
* a run's participant count — the hosts attached to its network — is
  capped (:attr:`FreePastryAgent.MAX_POPULATION`); a node beyond it raises
  :class:`FreePastryCapacityError` when its agent is built, reproducing the
  "insufficient memory beyond 100 participants" wall.  A recovered node
  keeps its host, so crash/recover cycles never count twice.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Optional

from ..protocols import pastry_agent
from ..runtime.messages import Message


class FreePastryCapacityError(RuntimeError):
    """Raised when more FreePastry instances are created than memory allows."""


@cache
def FreePastryAgent():
    """Return the FreePastry baseline agent class (built once per process)."""

    class FreePastryAgentImpl(pastry_agent()):  # type: ignore[misc,valid-type]
        """Pastry with FreePastry/RMI cost characteristics."""

        PROTOCOL = "freepastry"
        #: Marshalling + RMI dispatch delay added to every message send.
        #: Calibrated so the per-packet latency gap matches the ~80 %
        #: reduction the paper reports for MACEDON over FreePastry/RMI.
        RMI_OVERHEAD = 0.100
        #: Additional per-received-message dispatch (deserialisation) delay.
        RMI_RECEIVE_OVERHEAD = 0.050
        #: Largest population the baseline supports before exhausting memory.
        MAX_POPULATION = 100

        def __init__(self, node) -> None:
            if len(node.emulator.hosts) > self.MAX_POPULATION:
                raise FreePastryCapacityError(
                    f"FreePastry baseline cannot run more than "
                    f"{self.MAX_POPULATION} participants (out of memory)"
                )
            super().__init__(node)

        def send_msg(self, message: Message, dest: int, *,
                     priority: int = -1,
                     tag: Optional[str] = None) -> None:
            """Delay every transmission by the RMI marshalling overhead."""
            overhead = self.RMI_OVERHEAD + self.RMI_RECEIVE_OVERHEAD
            self.simulator.schedule(overhead, partial(
                super().send_msg, message, dest, priority=priority,
                tag=tag))

    return FreePastryAgentImpl
