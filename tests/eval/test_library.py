"""The scenario library and its protocol table run generated protocols only.

Six library entries ran a hand-written ring stand-in until they were moved
onto registry-compiled Chord; what the move must preserve is that each of
them still ends with every invariant holding and an exactly correct ring.
"""

from __future__ import annotations

import pytest

from repro.eval import ScenarioSpec, WorkloadModel, check_invariants
from repro.eval.library import PROTOCOLS, library_spec
from repro.eval.metrics import ring_successor_correctness
from repro.live import LiveClusterConfig

MOVED_TO_CHORD = ("flash-crowd-departure", "rack-failure",
                  "flapping-partition", "bottleneck-links", "churn-storm",
                  "partition-under-churn")


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("name", MOVED_TO_CHORD)
def test_moved_library_entry_holds_every_invariant_on_generated_chord(name,
                                                                      seed):
    result = library_spec(name, seed=seed).run()
    assert check_invariants(result) == []
    assert ring_successor_correctness(result.experiment.nodes) == 1.0


def test_every_registered_protocol_is_generated_and_live_deployable():
    for name, stack in PROTOCOLS.items():
        for agent_class in stack():
            assert agent_class.__module__.startswith("repro._generated"), \
                (name, agent_class)
        spec = ScenarioSpec(
            name=f"deploy-{name}", agents=stack, num_nodes=4, duration=30.0,
            models=(WorkloadModel(kind="route", packets=4, start=20.0),))
        assert LiveClusterConfig(spec).protocol == stack.name
