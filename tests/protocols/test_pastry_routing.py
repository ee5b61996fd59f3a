"""Pastry as published, at 200 nodes: prefix routing over a table and a leaf set.

200 nodes join 0.2 s apart and settle for 30 s.  Then route probes from
random nodes to random keys must each arrive once, at the numerically
closest node, in the O(log_16 N) hops of prefix routing: at most
ceil(log_16 200) + 1 = 3 overlay hops on average.  The hops are read from
the causal log, whose ``causal.route_hops`` for a route is one more than
its overlay hops: the trace goes on with the owner's ``cache_hint`` back to
the origin.  Every node keeps O(2^b log N) routing state, its leaf set is
mutual, and a crashed leaf is replaced by the next node on its side once
the failure detector reports it.
"""

from __future__ import annotations

import random

import pytest

from repro.eval.invariants import leaf_set_symmetric, routing_state_bounded
from repro.eval.scenario import ChurnModel, ScenarioSpec, Stack
from repro.obs import CausalLog
from repro.runtime.tracing import Tracer

NODES = 200
SETTLE = 30.0
PROBES = 200


@pytest.fixture(scope="module")
def result():
    return ScenarioSpec(
        name="pastry-routing", agents=Stack("pastry"), num_nodes=NODES,
        duration=NODES * 0.2 + SETTLE, seed=5,
        models=(ChurnModel(join="staggered", join_spacing=0.2),)).run()


def live_agents(experiment) -> dict:
    return {node.address: node.lowest_agent for node in experiment.nodes
            if not node.crashed}


def expected_leaves(agents: dict, address: int) -> set[int]:
    """The LEAF_SET // 2 nearest live nodes on each side of *address*."""
    me = agents[address]
    half = me.LEAF_SET // 2
    size = me.key_space.size
    others = sorted((other for other in agents if other != address),
                    key=lambda other: (agents[other].my_key - me.my_key) % size)
    return set(others[:half]) | set(others[-half:])


def test_every_node_joins_with_mutual_leaves_and_bounded_state(result):
    agents = live_agents(result.experiment)
    assert {agent.state for agent in agents.values()} == {"joined"}
    assert leaf_set_symmetric(result) == []
    assert routing_state_bounded(result) == []
    sizes = [agent.routing_state_size() for agent in agents.values()]
    # (2^4 - 1) * ceil(log_16 200) + 8 = 38; full membership would be 199.
    assert max(sizes) <= 38
    for address, agent in agents.items():
        assert set(agent.leafset.addresses()) == \
            expected_leaves(agents, address)


def test_routes_arrive_at_the_closest_node_in_log16_hops(result):
    experiment = result.experiment
    simulator = experiment.simulator
    agents = live_agents(experiment)
    space = next(iter(agents.values())).key_space
    log = CausalLog(Tracer(), simulator)
    experiment.emulator.install_send_tap(log.tag)
    experiment.emulator.install_delivery_wrapper(log.wrap_delivery)
    delivered = []
    for node in experiment.nodes:
        node.macedon_register_handlers(
            deliver=lambda payload, size, mtype, at=node.address:
            delivered.append((payload, at)))

    rng = random.Random(5)
    probes = {}

    def probe(index: int) -> None:
        """Route one probe; trace ids count up from 1, one per new trace."""
        source = rng.choice(experiment.nodes)
        key = rng.randrange(space.size)
        first = log.traces
        source.macedon_route(key, index, 100)
        probes[index] = (key, range(first + 1, log.traces + 1))

    for index in range(PROBES):
        simulator.schedule(0.05 * index, probe, index)
    experiment.run(0.05 * PROBES + 5.0)

    def closest(key: int) -> int:
        return min(agents, key=lambda address: (
            agents[address].bi_distance(agents[address].my_key, key), address))

    # Route success 1.0: every probe arrives once, at its key's owner.
    assert sorted(delivered) == sorted(
        (index, closest(key)) for index, (key, _) in probes.items())
    # Overlay hops: each probe trace's causal.route_hops (max hop + 1) less
    # the cache_hint.  A probe whose source owns its key starts no trace.
    hops = [log.max_hop[trace] for _, traces in probes.values()
            for trace in traces]
    local = [index for index, (_, traces) in probes.items() if not traces]
    assert len(hops) + len(local) == PROBES and len(local) < PROBES // 20
    assert sum(hops) / len(hops) <= 3.0
    assert max(hops) <= 4


def test_a_crashed_leaf_is_replaced_from_the_leaf_set(result):
    experiment = result.experiment
    agents = live_agents(experiment)
    address = min(agents)
    agent = agents[address]
    size = agent.key_space.size
    victim = min(agent.leafset.addresses(),
                 key=lambda leaf: (agents[leaf].my_key - agent.my_key) % size)
    holders = [other for other, leaves in agents.items()
               if leaves.leafset.query(victim)]
    experiment.crash_node(next(node for node in experiment.nodes
                               if node.address == victim))
    failure_timeout = experiment.nodes[0].failure_detector.config.failure_timeout
    experiment.run(failure_timeout + 10.0)

    agents = live_agents(experiment)
    assert victim not in agents
    for holder in holders:
        leaves = set(agents[holder].leafset.addresses())
        assert victim not in leaves
        assert leaves == expected_leaves(agents, holder)
        assert len(leaves) == agents[holder].LEAF_SET
