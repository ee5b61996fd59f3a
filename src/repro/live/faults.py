"""Live fault directives: the scenario fault vocabulary on wall-clock.

A :class:`~repro.eval.scenario.ScenarioModel` fault model describes its
faults once, as the rows its ``draw`` returns.  The scenario engine executes
them on the simulator timeline; this module executes the same draw on a
:class:`~repro.live.cluster.LiveClusterConfig` wall-clock schedule, as *live
fault directives* — small frozen dataclasses the coordinator carries out:

* :class:`KillNode` — a real ``SIGKILL`` of the node's OS process, with an
  optional supervised respawn (the respawned process re-enters through the
  transport restart-epoch machinery);
* :class:`PartitionFault` — host-group partition rules installed in every
  node's :class:`~repro.transport.udp.SocketFaults` table over the
  coordinator control channel;
* :class:`DegradeFault` — per-peer delay/loss rules standing in for the
  emulator's bandwidth/latency degradation.

Times are offsets from the cluster's barrier-aligned clock zero.  Because a
live run compresses a multi-minute simulated timeline into a few wall-clock
seconds, :func:`compile_fault_models` *rescales* each model before drawing
it — instants linearly onto the live workload window (join wave and settle
excluded), spans by the same factor with floors so a respawn is a real
outage, not a scheduling artifact — and then maps the drawn rows *by verb*
(:data:`LIVE_VERBS`).  This module knows no model class: a new fault model
is live-runnable as soon as its ``draw`` emits verbs listed there.  The draw
uses ``random.Random(f"{seed}:live-faults")`` — reproducible per seed,
though not the same victims the simulator samples (the differential harness
compares metric distributions, not event logs).

A model that needs the emulated underlay (link-level cuts and degradation,
rack-correlated crashes) says so itself when drawn without one, and a spec
the simulator rejects is rejected here in the same words
(:class:`LiveFaultError`); :func:`live_runnable` turns that into the tag
the fuzzer stamps on generated specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

#: One simulated latency-factor unit maps to this many seconds of added
#: one-way delay on a degraded node's access link (localhost has no
#: meaningful base RTT to scale, so the unit is declared, not measured).
DEGRADE_DELAY_UNIT = 0.02

#: Ceilings keeping rescaled degradation survivable on a compressed
#: timeline: more delay than this stalls reliable windows for the whole
#: (short) live run, reporting transport collapse instead of degradation.
MAX_DEGRADE_DELAY = 0.25
MAX_DEGRADE_LOSS = 0.75

#: Floors for rescaled outage/heal spans (seconds): a respawn needs real
#: process-boot time, and a partition shorter than a few RTTs is noise.
MIN_DOWNTIME = 1.0
MIN_HEAL_SPAN = 0.5


class LiveFaultError(RuntimeError):
    """A scenario fault model is malformed or has no live equivalent."""


@dataclass(frozen=True)
class KillNode:
    """SIGKILL node *index* at *at*; respawn ``respawn_after`` seconds later
    (None = the node stays down for the rest of the run)."""

    at: float
    index: int
    respawn_after: Optional[float] = None

    @property
    def end(self) -> float:
        return self.at + (self.respawn_after or 0.0)


@dataclass(frozen=True)
class PartitionFault:
    """Host-group partition (node indices) installed at *at*, healed
    ``heal_after`` seconds later (None = never)."""

    at: float
    groups: Tuple[Tuple[int, ...], ...]
    heal_after: Optional[float] = None

    @property
    def end(self) -> float:
        return self.at + (self.heal_after or 0.0)


@dataclass(frozen=True)
class DegradeFault:
    """Degrade the access links of the given node indices: arrivals from
    (and to) them gain *delay* seconds and *loss* drop probability."""

    at: float
    indices: Tuple[int, ...]
    delay: float = 0.0
    loss: float = 0.0
    restore_after: Optional[float] = None

    @property
    def end(self) -> float:
        return self.at + (self.restore_after or 0.0)


LiveFault = Union[KillNode, PartitionFault, DegradeFault]


def fault_horizon(faults) -> float:
    """Offset of the last scheduled fault transition (0.0 for no faults).

    Post-fault accounting (the "recovers after the settle window" gate)
    starts here; a kill with no respawn still ends at its kill time — the
    membership change is instantaneous even if the outage is permanent.
    """
    return max((fault.end for fault in faults), default=0.0)


def _degrade(at: float, index: int, bandwidth_factor: float,
             latency_factor: float, span: Optional[float]) -> DegradeFault:
    delay = min(MAX_DEGRADE_DELAY, (latency_factor - 1.0) * DEGRADE_DELAY_UNIT)
    loss = min(MAX_DEGRADE_LOSS, max(0.0, 1.0 - bandwidth_factor))
    return DegradeFault(at, (index,), round(delay, 4), round(loss, 4), span)


#: What the live executor does for each fault verb it can carry out
#: (:data:`repro.eval.faults.FAULT_VERBS` is the vocabulary):
#: ``verb -> directive(at, *args, span)``.  ``join_node`` rows are dropped;
#: a row with any other verb is a :class:`LiveFaultError`.
LIVE_VERBS = {"crash_node": KillNode, "partition": PartitionFault,
              "degrade_node": _degrade}

#: Model fields holding an instant of the simulated timeline.
_INSTANTS = ("at", "churn_start", "churn_end")
#: Model fields holding a span of simulated seconds -> its live floor.
_SPAN_FLOORS = {"downtime": MIN_DOWNTIME, "recover_after": MIN_DOWNTIME,
                "heal_after": MIN_HEAL_SPAN, "restore_after": MIN_HEAL_SPAN,
                "period": 2 * MIN_HEAL_SPAN}


def compile_fault_models(spec, config) -> Tuple[LiveFault, ...]:
    """Compile *spec*'s fault models onto *config*'s wall-clock schedule:
    rescale each model, draw it with its own ``draw``, map the rows by verb
    (module docstring).  Sim seconds in ``[0, spec.duration]`` map onto the
    live workload window ``[config.workload_start, config.duration]``, and
    the join schedule becomes the live join wave — exactly as the facade
    replaces the workload model's ``start``/``gap`` timing.

    Raises :class:`LiveFaultError` for models with no live equivalent.
    """
    from ..eval.scenario import (FAULT_VERBS, GroupModel, ScenarioError,
                                 WorkloadModel, check_event_time)

    rng = random.Random(f"{config.seed}:live-faults")
    scale = (config.duration - config.workload_start) / float(spec.duration)

    def map_at(t: float) -> float:
        # Clamped: a churn window's edge before 0 (the draw opens the window
        # at the join) and anything past the end.  A row before 0 is refused.
        t = min(max(float(t), 0.0), float(spec.duration))
        return round(min(config.workload_start + t * scale,
                         config.duration - 0.25), 3)

    # The live join wave in a join model's own fields.
    join_wave = {"join": "staggered", "start": 0.0,
                 "join_spacing": config.join_spacing}

    def rescaled(model):
        changes = {}
        for name, value in vars(model).items():
            if value is None:
                continue
            if name in _INSTANTS:
                changes[name] = map_at(value)
            elif name in _SPAN_FLOORS:
                changes[name] = round(max(_SPAN_FLOORS[name],
                                          float(value) * scale), 3)
            elif name in join_wave:
                changes[name] = join_wave[name]
        return replace(model, **changes)

    horizon = map_at(spec.duration)
    faults: list[LiveFault] = []
    for model in spec.models:
        if isinstance(model, (WorkloadModel, GroupModel)):
            continue   # the live workload/group choreography covers these
        try:
            # Drawn once as written (scratch stream) for the model's own
            # checks and the simulator's on the rows: rescaling would floor
            # a zero period or negative span, and clamp ``at=-5.0``, to valid.
            for row in model.draw(config.nodes, random.Random(0),
                                  spec.duration)[0]:
                check_event_time(FAULT_VERBS[row.verb][0], row.at)
                if row.until is not None:
                    check_event_time(FAULT_VERBS[row.verb][2], row.until)
            rows, _metrics = rescaled(model).draw(config.nodes, rng, horizon)
        except ScenarioError as exc:
            raise LiveFaultError(str(exc)) from exc
        for row in rows:
            if row.verb == "join_node":
                continue   # the live join wave replaces every join schedule
            if row.verb not in LIVE_VERBS:
                raise LiveFaultError(
                    f"no live mapping for fault verb {row.verb!r} "
                    f"({type(model).__name__}: {row.detail})")
            at = round(row.at, 3)
            if at > horizon:
                continue   # e.g. flap cycles past the live horizon never fire
            # No field floor reaches a flap's cut, ``duty * period``.
            span = None if row.until is None else max(
                MIN_HEAL_SPAN, round(row.until - row.at, 3))
            faults.append(LIVE_VERBS[row.verb](at, *row.args, span))
    return tuple(sorted(faults, key=lambda fault: (fault.at, repr(fault))))


def live_runnable(spec) -> Tuple[bool, Optional[str]]:
    """Is *spec* runnable as a live deployment?  Returns ``(ok, reason)``.

    A spec is live-runnable when its agents are a registry stack (any
    ``PROTOCOLS`` row), it carries a workload, and every fault model
    compiles onto wall-clock — the tag the fuzzer stamps on generated specs
    so the differential harness can consume fuzzer artifacts.
    """
    from ..eval.scenario import ScenarioError
    from ..facade import live_config
    from .cluster import LiveClusterError

    try:
        live_config(spec)
    except (ScenarioError, LiveFaultError, LiveClusterError) as exc:
        return False, str(exc)
    return True, None
