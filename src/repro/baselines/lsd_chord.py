"""lsd-style Chord baseline (the MIT distribution in Figure 10).

The MACEDON paper compares its Chord implementation (static fix-fingers timer,
1 s and 20 s settings) against MIT's ``lsd``, whose distinguishing runtime
behaviour for that experiment is a *dynamically adjusted* fix-fingers period:
the repair timer backs off while the routing table is already correct and
tightens when repairs are still finding stale entries.  This baseline runs the
same Chord algorithm but applies that adaptive policy, so the Figure-10
comparison isolates exactly the timer strategy — which is the point the paper
makes ("the optimal strategy for dynamically adjusting protocol parameters is
unclear").
"""

from __future__ import annotations

from functools import cache

from ..protocols import chord_agent
from ..runtime.messages import Message


@cache
def LsdChordAgent():
    """Return the lsd-style Chord agent class, built once per process (a
    callable, so the DSL compiles on first use)."""

    class LsdChordAgentImpl(chord_agent()):  # type: ignore[misc,valid-type]
        """Chord with lsd-style adaptive fix-fingers period."""

        PROTOCOL = "lsd_chord"
        #: Bounds of the adaptive period (seconds), mirroring lsd's behaviour
        #: of backing off when the table is stable.
        MIN_FIX_PERIOD = 0.5
        MAX_FIX_PERIOD = 16.0

        def __init__(self, node) -> None:
            super().__init__(node)
            self.fix_adjustments = 0

        def receive_message(self, message: Message) -> bool:
            if message.name == "lookup_reply" and \
                    message.purpose == self.CONSTANTS["PURPOSE_FIX"]:
                self._adapt_fix_period(message)
            return super().receive_message(message)

        def _adapt_fix_period(self, message: Message) -> None:
            """Halve the period when a repair changed an entry, double it otherwise."""
            index = message.idx
            incoming = (message.owner_key, message.owner)
            current = self.finger_table().get(index)
            period = self.fix_period or self.CONSTANTS["DEFAULT_FIX_PERIOD"]
            if current == incoming:
                period = min(period * 2.0, self.MAX_FIX_PERIOD)
            else:
                period = max(period / 2.0, self.MIN_FIX_PERIOD)
            self.fix_period = period
            self.fix_adjustments += 1

    return LsdChordAgentImpl
