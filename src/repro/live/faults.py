"""What the live fault plane adds to the scenario fault vocabulary.

A :class:`~repro.eval.scenario.ScenarioModel` fault model describes its
faults once, as the :class:`~repro.eval.faults.Fault` rows its ``draw``
returns.  The simulator runs them on an
:class:`~repro.eval.experiment.OverlayExperiment`; a live deployment draws
the same rows from the same RNG stream
(:meth:`~repro.live.cluster.LiveClusterConfig.draw`) and runs them at their
own offsets, in spec seconds, on a
:class:`~repro.live.cluster.LiveCluster`, which carries the verbs a
deployment can carry out under the experiment's names.  Both score the
post-fault window on the same rows
(:func:`~repro.eval.scenario.score_recovery`).  This module holds the rest:
how a degraded access link's factors become socket delay and loss, and
whether a spec can be deployed at all.

A model that needs the emulated underlay (link-level cuts and degradation,
rack-correlated crashes) says so itself when drawn without one, so a spec
the simulator rejects is rejected live in the same words;
:func:`live_runnable` turns that into the tag the fuzzer stamps on generated
specs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..eval.scenario import ScenarioError

#: One simulated latency-factor unit maps to this many seconds of added
#: one-way delay on a degraded node's access link (localhost has no
#: meaningful base RTT to scale, so the unit is declared, not measured).
DEGRADE_DELAY_UNIT = 0.02

#: Ceilings keeping degradation survivable on a short live run: more delay
#: than this stalls reliable windows for the whole run, reporting transport
#: collapse instead of degradation.
MAX_DEGRADE_DELAY = 0.25
MAX_DEGRADE_LOSS = 0.75


class LiveFaultError(ScenarioError):
    """A spec draws a fault row no live process can carry out."""


def live_runnable(spec) -> Tuple[bool, Optional[str]]:
    """Is *spec* runnable as a live deployment?  Returns ``(ok, reason)``.

    A spec is live-runnable when its agents are a registry stack (any
    ``PROTOCOLS`` row), it carries a workload, and every row it draws has a
    live executor — the tag the fuzzer stamps on generated specs so the
    differential harness can consume fuzzer artifacts.
    """
    from .cluster import LiveClusterConfig, LiveClusterError

    try:
        LiveClusterConfig(spec).draw()
    except (ScenarioError, LiveClusterError) as exc:
        return False, str(exc)
    return True, None
