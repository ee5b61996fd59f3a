"""The fault vocabulary stays in step with its executors and its docs.

``FAULT_VERBS`` is one table read by every executor: the simulator looks
every verb and undo verb up on :class:`OverlayExperiment`; a live deployment
carries out the crash verb on the coordinator's :class:`LiveCluster` and the
network verbs on each node process's :class:`SocketFaults`.  These tests
fail when a row names a method an executor does not have (or passes it
arguments it does not take), when a live executor carries a verb without
its undo, and when docs/SCENARIOS.md "Fault verbs" no longer shows the
table.
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
from repro.live import LiveCluster, LiveFaultError
from repro.transport.udp import SocketFaults

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


#: The verbs of the table a live deployment carries out, by executor: the
#: coordinator's supervisor and each node process's socket fault table.
LIVE = {executor: [verb for verb in FAULT_VERBS if hasattr(executor, verb)]
        for executor in (LiveCluster, SocketFaults)}


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
            executors = [OverlayExperiment] + [
                executor for executor, verbs in LIVE.items()
                if fault.verb in verbs]
            for executor in executors:
                _binds(fault.verb, fault.args, executor)
                if undo is not None:
                    _binds(undo, fault.args[:undo_arity], executor)
            drawn.add(fault.verb)
    assert drawn == set(FAULT_VERBS)


def test_every_verb_a_live_executor_carries_out_has_its_undo():
    assert LIVE == {LiveCluster: ["crash_node"],
                    SocketFaults: ["partition", "degrade_node"]}
    for executor, verbs in LIVE.items():
        for verb in verbs:
            undo = FAULT_VERBS[verb][1]
            assert callable(getattr(executor, undo, None)), \
                f"{executor.__name__}.{verb} has no undo {undo}"


def test_a_row_a_live_cluster_cannot_run_is_an_error_naming_the_verb():
    @dataclass(frozen=True)
    class LinkCutter(ScenarioModel):
        def draw(self, num_nodes, rng, horizon, experiment=None):
            return [Fault(1.0, "disable_link", (10, 0), "a cut")], {}

    spec = ScenarioSpec(name="unmapped", agents=resolve_protocol("chord"),
                        num_nodes=4, duration=60.0,
                        models=(LinkCutter(), WorkloadModel(kind="route")))
    with pytest.raises(LiveFaultError, match="disable_link"):
        spec.draw()


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
        carriers = [executor.__name__ for executor, verbs in LIVE.items()
                    if verb in verbs]
        if carriers:
            (carrier,) = carriers
            assert f"`{carrier}.{verb}`" in cells[4]
        elif verb != "join_node":
            assert "needs the emulated underlay" in cells[4]
    assert len(rows) == len(FAULT_VERBS)
