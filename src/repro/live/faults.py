"""What the live fault plane adds to the scenario fault vocabulary.

A fault model describes its faults once, as the
:class:`~repro.eval.faults.Fault` rows its ``draw`` returns, and both
drivers draw and bind them the same way (:mod:`repro.eval.scenario`): the
simulator on an :class:`~repro.eval.experiment.OverlayExperiment`, a live
deployment on two executors that carry the experiment's verbs under its
names — each node process's :class:`~repro.transport.udp.SocketFaults`
(partitions and degraded access links, with the caps that turn factors
into socket delay and loss) and the :class:`~repro.live.cluster.LiveCluster`
supervisor (crashes and recoveries).  This module holds the rest: whether a
spec can be deployed at all.

A model that needs the emulated underlay (link-level cuts and degradation,
rack-correlated crashes) says so itself when drawn without one, so a spec
the simulator rejects is rejected live in the same words;
:func:`live_runnable` turns that into the tag the fuzzer stamps on generated
specs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..eval.scenario import ScenarioError


class LiveFaultError(ScenarioError):
    """A spec draws a fault row no live process can carry out."""


def live_runnable(spec) -> Tuple[bool, Optional[str]]:
    """Is *spec* runnable as a live deployment?  Returns ``(ok, reason)``.

    A spec is live-runnable when its agents are a
    :class:`~repro.eval.scenario.Stack` that resolves, it carries a
    workload, and every row it draws has a
    live executor — the tag the fuzzer stamps on generated specs so the
    differential harness can consume fuzzer artifacts.
    """
    from .cluster import LiveClusterConfig, LiveClusterError

    try:
        LiveClusterConfig(spec)
        spec.draw()
    except (ScenarioError, LiveClusterError) as exc:
        return False, str(exc)
    return True, None
