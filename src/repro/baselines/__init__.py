"""Baseline (non-MACEDON) implementations used by the comparison figures.

* :mod:`repro.baselines.lsd_chord` — a Chord participant whose fix-fingers
  timer adapts dynamically, standing in for MIT's ``lsd`` distribution in the
  Figure-10 convergence comparison.
* :mod:`repro.baselines.freepastry` — a Pastry participant with FreePastry/RMI
  cost characteristics (per-message marshalling delay, per-node memory
  ceiling), standing in for the FreePastry release in the Figure-11 latency
  comparison.
"""

from .freepastry import FreePastryAgent, FreePastryCapacityError
from .lsd_chord import LsdChordAgent

__all__ = [
    "FreePastryAgent",
    "FreePastryCapacityError",
    "LsdChordAgent",
]
