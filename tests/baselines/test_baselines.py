"""Tests for the lsd-Chord and FreePastry baselines."""

from __future__ import annotations

import pytest

from repro.baselines import FreePastryAgent, FreePastryCapacityError, LsdChordAgent
from repro.eval import ChurnModel, ScenarioSpec, average_correct_route_entries
from repro.protocols import pastry_agent


def test_lsd_chord_joins_and_adapts_timer():
    spec = ScenarioSpec(name="lsd-chord", agents=[LsdChordAgent()],
                        num_nodes=20, duration=120.0, seed=71,
                        models=(ChurnModel(join="staggered", join_spacing=0.2),))
    experiment = spec.run().experiment
    agents = [node.agent("lsd_chord") for node in experiment.nodes]
    assert all(agent.state == "joined" for agent in agents)
    # The adaptive policy actually adjusted periods, and periods stay in bounds.
    assert sum(agent.fix_adjustments for agent in agents) > 0
    for agent in agents:
        assert agent.MIN_FIX_PERIOD <= agent.fix_period <= agent.MAX_FIX_PERIOD
    # Routing tables converge like regular Chord's.
    assert average_correct_route_entries(experiment.nodes, "lsd_chord") > 20


def freepastry_run(num_nodes: int, seed: int) -> ScenarioSpec:
    return ScenarioSpec(name="freepastry", agents=[FreePastryAgent()],
                        num_nodes=num_nodes, duration=10.0, seed=seed)


def test_freepastry_cap_counts_one_runs_participants():
    assert FreePastryAgent().MAX_POPULATION == 100
    # Two runs in one process each stay under the cap on their own.
    freepastry_run(60, seed=72).build()
    freepastry_run(60, seed=72).build()


def test_freepastry_recovered_node_is_not_a_new_participant():
    # A recovered node keeps its host: it is not a 101st participant.
    experiment = freepastry_run(100, seed=72).build()
    experiment.crash_node(5)
    experiment.recover_node(5)
    assert experiment.nodes[5].alive


def test_freepastry_slower_than_macedon_pastry_on_same_workload():
    # Send one route and time its delivery.
    def routed_latency(agent_class, seed):
        spec = ScenarioSpec(name="routed", agents=[agent_class], num_nodes=12,
                            duration=90.0, seed=seed,
                            models=(ChurnModel(join="immediate"),))
        experiment = spec.run().experiment
        target = experiment.nodes[5]
        arrival = {}
        target.macedon_register_handlers(
            deliver=lambda p, s, t: arrival.setdefault("t", experiment.simulator.now))
        start = experiment.simulator.now
        experiment.nodes[9].macedon_route(target.lowest_agent.my_key, None, 500)
        experiment.run(20.0)
        assert "t" in arrival
        return arrival["t"] - start

    macedon = routed_latency(pastry_agent(), seed=73)
    freepastry = routed_latency(FreePastryAgent(), seed=73)
    assert freepastry > macedon


def test_freepastry_capacity_error_raised():
    agent_class = FreePastryAgent()
    with pytest.raises(FreePastryCapacityError):
        freepastry_run(agent_class.MAX_POPULATION + 5, seed=74).build()
