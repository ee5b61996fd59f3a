"""The fault vocabulary stays in step with its executors and its docs.

``FAULT_VERBS`` is one table read by two executors: the simulator looks every
verb and undo verb up on :class:`OverlayExperiment`, the live cluster on
:class:`LiveCluster`, which carries the verbs a deployment can carry out.
These tests fail when a row names a method an executor does not have (or
passes it arguments it does not take), when the cluster carries a verb
without its undo, and when docs/SCENARIOS.md "Fault verbs" no longer shows
the table.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.eval.experiment import OverlayExperiment
from repro.eval.faults import FAULT_VERBS, Fault
from repro.eval.library import STUB_UPLINK_EDGES, resolve_protocol
from repro.eval.scenario import (ChurnModel, CorrelatedCrashModel, CrashModel,
                                 DegradeModel, FlappingPartitionModel,
                                 FlashCrowdModel, PartitionModel,
                                 ScenarioModel, ScenarioSpec, WorkloadModel)
from repro.live import LiveCluster, LiveClusterConfig, LiveFaultError

DOC = Path(__file__).resolve().parents[2] / "docs" / "SCENARIOS.md"

#: One spec whose models, between them, draw every verb of the table.
EVERY_VERB = ScenarioSpec(
    name="every-verb", agents=resolve_protocol("chord"), num_nodes=8,
    duration=120.0, seed=1, models=(
        ChurnModel(churn_fraction=0.3),
        FlashCrowdModel(core=2, stay=20.0),
        CrashModel(at=10.0, victims=(1,), recover_after=5.0),
        CorrelatedCrashModel(recover_after=5.0),
        PartitionModel(at=5.0, heal_after=5.0, groups=((1, 2),),
                       links=STUB_UPLINK_EDGES[:1]),
        FlappingPartitionModel(links=STUB_UPLINK_EDGES[:1], directed=True),
        DegradeModel(hosts=(3,), links=STUB_UPLINK_EDGES[:1],
                     bandwidth_factor=0.5, restore_after=5.0)))


#: The verbs of the table a live cluster carries out.
LIVE = [verb for verb in FAULT_VERBS if hasattr(LiveCluster, verb)]


def _binds(method_name: str, args: tuple,
           executor: type = OverlayExperiment) -> None:
    """*args* are valid positional arguments of the executor's method."""
    method = getattr(executor, method_name)
    inspect.signature(method).bind(None, *args)


def test_every_verb_is_an_experiment_method_taking_the_drawn_arguments():
    experiment = EVERY_VERB.build()
    drawn = set()
    for model in EVERY_VERB.models:
        faults, _metrics = model.draw(EVERY_VERB.num_nodes, random.Random(1),
                                      EVERY_VERB.duration, experiment)
        for fault in faults:
            _kind, undo, _undo_kind, undo_arity = FAULT_VERBS[fault.verb]
            executors = [OverlayExperiment]
            if fault.verb in LIVE:
                executors.append(LiveCluster)
            for executor in executors:
                _binds(fault.verb, fault.args, executor)
                if undo is not None:
                    _binds(undo, fault.args[:undo_arity], executor)
            drawn.add(fault.verb)
    assert drawn == set(FAULT_VERBS)


def test_every_verb_the_live_cluster_carries_out_has_its_undo():
    assert LIVE == ["crash_node", "partition", "degrade_node"]
    for verb in LIVE:
        undo = FAULT_VERBS[verb][1]
        assert callable(getattr(LiveCluster, undo, None)), \
            f"LiveCluster.{verb} has no undo {undo}"


def test_a_row_a_live_cluster_cannot_run_is_an_error_naming_the_verb():
    @dataclass(frozen=True)
    class LinkCutter(ScenarioModel):
        def draw(self, num_nodes, rng, horizon, experiment=None):
            return [Fault(1.0, "disable_link", (10, 0), "a cut")], {}

    spec = ScenarioSpec(name="unmapped", agents=resolve_protocol("chord"),
                        num_nodes=4, duration=60.0,
                        models=(LinkCutter(), WorkloadModel(kind="route")))
    with pytest.raises(LiveFaultError, match="disable_link"):
        LiveClusterConfig(spec).draw()


def test_scenarios_md_shows_the_verb_table():
    section = DOC.read_text().split("## Fault verbs")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0]] = cells
    for verb, (kind, undo, undo_kind, _arity) in FAULT_VERBS.items():
        assert f"`{verb}`" in rows, f"{verb} missing from {DOC.name}"
        cells = rows[f"`{verb}`"]
        assert cells[1:4] == [f"`{kind}`",
                              f"`{undo}`" if undo else "—",
                              f"`{undo_kind}`" if undo else "—"]
        if verb in LIVE:
            assert f"`LiveCluster.{verb}`" in cells[4]
        elif verb != "join_node":
            assert "needs the emulated underlay" in cells[4]
    assert len(rows) == len(FAULT_VERBS)
