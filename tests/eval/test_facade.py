"""``repro.run`` facade: byte-identical to the entry points it wraps.

The facade is pure dispatch — these tests pin that every mode produces
exactly (``repr``-equality, the repo's determinism ruler) what calling the
underlying entry point directly produces, so callers can migrate to
``repro.run`` without any result drifting.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro.eval.library import resolve_protocol
from repro.eval.runner import ScenarioRunner
from repro.eval.scenario import (ChurnModel, ScenarioError, ScenarioSpec,
                                 Stack, WorkloadModel)


def route_spec(seed=3):
    return ScenarioSpec(
        name="facade-route",
        agents=resolve_protocol("chord"),
        num_nodes=8,
        duration=60.0,
        seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="route", source=-1, start=30.0,
                              packets=10, gap=1.0)),
    )


def kv_spec(seed=5):
    return ScenarioSpec(
        name="facade-kv",
        agents=resolve_protocol("chord"),
        num_nodes=10,
        duration=80.0,
        seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="kv", start=40.0, packets=24, gap=1.0,
                              keys=16, read_fraction=0.5, repair_gap=0.0)),
    )


def test_facade_default_matches_spec_run():
    direct = route_spec().run()
    via_facade = repro.run(route_spec())
    assert repr(via_facade.metrics) == repr(direct.metrics)
    assert via_facade.events == direct.events


def test_facade_multi_seed_matches_scenario_runner():
    direct = ScenarioRunner(route_spec(), [3, 4, 5]).run()
    via_facade = repro.run(route_spec(), seeds=3)
    assert via_facade.seeds == direct.seeds == [3, 4, 5]
    assert repr(via_facade.aggregate) == repr(direct.aggregate)
    for mine, theirs in zip(via_facade.results, direct.results):
        assert repr(mine.metrics) == repr(theirs.metrics)


def test_facade_explicit_seed_sequence():
    direct = ScenarioRunner(route_spec(), [9, 2]).run()
    via_facade = repro.run(route_spec(), seeds=[9, 2])
    assert via_facade.seeds == [9, 2]
    assert repr(via_facade.aggregate) == repr(direct.aggregate)


def test_facade_forked_seeds_match_the_serial_runner():
    direct = ScenarioRunner(route_spec(), [3, 4]).run()
    forked = repro.run(route_spec(), seeds=[3, 4], jobs=2)
    assert repr(forked.aggregate) == repr(direct.aggregate)
    for mine, theirs in zip(forked.results, direct.results):
        assert repr(mine.metrics) == repr(theirs.metrics)
        assert mine.experiment is None


def test_shards_is_an_unknown_keyword_of_every_sim_entry_point():
    with pytest.raises(TypeError, match="shards"):
        route_spec().run(shards=2)
    with pytest.raises(TypeError, match="shards"):
        ScenarioRunner(route_spec(), [3], shards=2)
    assert not hasattr(route_spec(), "run_sharded")


def test_facade_kv_spec_matches_spec_run():
    """The acceptance shape: one KV spec, unmodified, through the facade."""
    direct = kv_spec().run()
    via_facade = repro.run(kv_spec())
    assert repr(via_facade.metrics) == repr(direct.metrics)
    assert via_facade.metrics["workload.quorum_success"] > 0.9


def test_facade_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown mode"):
        repro.run(route_spec(), mode="dream")
    with pytest.raises(ValueError, match="seeds must be >= 1"):
        repro.run(route_spec(), seeds=0)
    with pytest.raises(ValueError, match="unknown options for sim mode"):
        repro.run(route_spec(), base_port=48000)
    with pytest.raises(ValueError, match="unknown options for sim mode"):
        repro.run(route_spec(), shards=2)
    with pytest.raises(ValueError, match="live mode boots one"):
        repro.run(route_spec(), mode="live", jobs=4)


def test_facade_live_mapping_rejects_uncompiled_protocols():
    # Agent classes built in this process, not a Stack: a node process
    # would have no registry name to compile.
    spec = ScenarioSpec(
        name="facade-classes", agents=resolve_protocol("chord").resolve(),
        num_nodes=4, duration=30.0, seed=1,
        models=(WorkloadModel(kind="route", packets=4, start=20.0),))
    with pytest.raises(ScenarioError, match="no live deployment"):
        repro.run(spec, mode="live")
    # Nor is a Stack whose params row names no declared var: the
    # coordinator resolves it before any process spawns.
    with pytest.raises(ScenarioError, match="names no declared var"):
        repro.run(replace(spec, agents=Stack(
            "chord", params=(("chord", "fix_perod", 1.0),))), mode="live")


def test_facade_live_mapping_needs_a_workload():
    spec = ScenarioSpec(name="facade-idle",
                        agents=resolve_protocol("chord"),
                        num_nodes=4, duration=30.0, seed=1)
    with pytest.raises(ScenarioError, match="needs a WorkloadModel"):
        repro.run(spec, mode="live")
