"""Determinism contract of the sharded kernel: K never matters.

There is one link physics and every queue has one owner (the sender owns its
uplink, the destination's shard every queue point after it), so a run is the
same run however many processes it is cut into:

* ``shards=1`` pushed through the worker pipeline is byte-identical
  (repr-exact metrics) to the plain single-process run — the pipeline adds
  no physics of its own;
* ``shards=K`` is stable across repeats — forking, barrier exchange, and
  packet merging introduce no process-local nondeterminism;
* ``shards=K`` equals the single-process run for every K, random loss
  included (each source host draws its losses from its own stream in every
  mode).
"""

from __future__ import annotations

from dataclasses import replace

import networkx as nx
import pytest

from repro import protocols
from repro.eval.scenario import (ChurnModel, GroupModel, PartitionModel,
                                 ScenarioSpec, WorkloadModel)
from repro.protocols import chord_agent
from repro.runtime.failure import FailureDetectorConfig


def make_seeded():
    spec = ScenarioSpec(
        name="sharded-equivalence",
        agents=lambda: [chord_agent()],
        num_nodes=40,
        duration=20.0,
        failure_config=FailureDetectorConfig(failure_timeout=10.0,
                                             heartbeat_timeout=4.0,
                                             check_interval=1.0),
        models=(
            ChurnModel(join="staggered", join_spacing=0.1, churn_fraction=0.0),
            WorkloadModel(kind="route", source=-1, start=15.0, packets=5,
                          gap=0.25),
        ),
    )
    return spec.with_seed(7)


def make_kv_repair():
    """Fault-free quorum KV with anti-entropy sweeps: the pooled kv scorer
    plus the per-node repair events' skip accounting."""
    spec = make_seeded()
    return replace(spec, duration=24.0, models=(
        spec.models[0],
        WorkloadModel(kind="kv", start=12.0, packets=16, gap=0.4, keys=8,
                      repair_gap=4.0)))


def make_pubsub_fanout():
    """Pub/sub with sampled subscriber sets and a random publisher per
    publication: the pooled pubsub scorer over receivers on every shard."""
    spec = make_stressed_scribe()
    return replace(spec, duration=32.0, models=(
        spec.models[0],
        WorkloadModel(kind="pubsub", source=-1, start=15.0, packets=8,
                      gap=0.5, topics=3, fanout=7)))


def fingerprint(result) -> dict[str, str]:
    return {key: repr(value) for key, value in sorted(result.metrics.items())}


@pytest.fixture(scope="module")
def single_run():
    return make_seeded().run()


@pytest.fixture(scope="module")
def sharded_4():
    return make_seeded().run_sharded(4)


@pytest.mark.determinism
def test_one_shard_pipeline_is_byte_identical(single_run):
    piped = make_seeded().run_sharded(1)
    assert fingerprint(piped) == fingerprint(single_run)
    assert piped.shard_info["num_shards"] == 1
    for make in (make_kv_repair, make_pubsub_fanout):
        assert fingerprint(make().run_sharded(1)) == fingerprint(make().run())


@pytest.mark.determinism
def test_sharded_run_is_repeat_stable(sharded_4):
    again = make_seeded().run_sharded(4)
    assert fingerprint(again) == fingerprint(sharded_4)


@pytest.mark.determinism
def test_results_do_not_depend_on_shard_count(single_run, sharded_4):
    two = make_seeded().run_sharded(2)
    assert fingerprint(two) == fingerprint(sharded_4) \
        == fingerprint(single_run)
    for make in (make_kv_repair, make_pubsub_fanout):
        assert fingerprint(make().run_sharded(2)) \
            == fingerprint(make().run_sharded(4)) == fingerprint(make().run())


def make_stressed_scribe():
    """Scribe-over-Pastry with group choreography and a healed partition:
    exercises both event families of the sharded dispatcher — group joins
    that name a node (run and counted on its owner shard) and network-wide
    partition/heal events (run on every shard, counted once, on shard 0)."""
    spec = ScenarioSpec(
        name="sharded-equivalence-scribe",
        agents=lambda: protocols.scribe_stack("pastry"),
        num_nodes=30,
        duration=45.0,
        failure_config=FailureDetectorConfig(failure_timeout=10.0,
                                             heartbeat_timeout=4.0,
                                             check_interval=1.0),
        models=(
            ChurnModel(join="staggered", join_spacing=0.15,
                       churn_fraction=0.0),
            GroupModel(group=7, source=0, at=18.0, spacing=0.25),
            PartitionModel(groups=((1, 2, 3),), at=20.0, heal_after=6.0),
            WorkloadModel(kind="multicast", source=0, group=7, start=38.0,
                          packets=4, gap=1.0),
        ),
    )
    return spec.with_seed(3)


@pytest.mark.determinism
def test_group_and_partition_events_are_shard_count_independent():
    two = fingerprint(make_stressed_scribe().run_sharded(2))
    four = fingerprint(make_stressed_scribe().run_sharded(4))
    assert two == four == fingerprint(make_stressed_scribe().run())
    assert make_stressed_scribe().run_sharded(1).shard_info["num_shards"] == 1


@pytest.mark.determinism
def test_link_cut_events_are_shard_count_independent():
    """Link cuts are network-wide like host partitions: every shard applies
    them to its own replica and they count once, whatever K is."""
    spec = make_seeded()
    graph = spec.build().topology.graph
    bridges = {frozenset(edge) for edge in nx.bridges(graph)}
    links = tuple(edge for edge in sorted(graph.edges())
                  if frozenset(edge) not in bridges)[:3]
    assert len(links) == 3
    spec = replace(spec, models=spec.models + (
        PartitionModel(links=links, at=10.0, heal_after=5.0),))
    assert fingerprint(spec.run_sharded(2)) == fingerprint(spec.run_sharded(4))


@pytest.mark.determinism
def test_random_loss_is_shard_count_independent():
    """Every source host draws its losses from its own stream, in every
    mode, so which packets are lost cannot depend on the partition — nor on
    whether there is one: the lossy run is one run at shards 1, 2 and 4 and
    in a single process."""
    spec = replace(make_seeded(), num_nodes=24, duration=60.0,
                   random_loss_rate=0.02, models=(
                       ChurnModel(join="staggered", join_spacing=0.1),
                       WorkloadModel(kind="route", source=-1, start=15.0,
                                     packets=40, gap=1.0))).with_seed(5)
    two = spec.run_sharded(2)
    assert fingerprint(two) == fingerprint(spec.run_sharded(4)) \
        == fingerprint(spec.run_sharded(1)) == fingerprint(spec.run())
    assert two.metrics["net.packets_dropped"] > 0


@pytest.mark.determinism
def test_a_narrow_mid_route_link_is_queued_by_its_downstream_shard():
    """On a dumbbell the two sides land on two shards and every crossing
    packet is exported at the bottleneck's queue, which the destination's
    shard owns: same run as in one process, and refused (as a ScenarioError
    naming the link) when the hosts behind the bottleneck would be split."""
    from repro.eval.scenario import ScenarioError
    from repro.network.topology import dumbbell_topology

    spec = replace(make_seeded(), num_nodes=12, duration=40.0,
                   topology=dumbbell_topology(clients_per_side=6,
                                              bottleneck_bandwidth=20_000.0),
                   models=(ChurnModel(join="staggered", join_spacing=0.1),
                           WorkloadModel(kind="route", source=-1, start=15.0,
                                         packets=40, gap=0.5)))
    two = spec.run_sharded(2)
    assert two.shard_info["num_shards"] == 2
    assert two.shard_info["cross_shard_packets"] > 0
    assert fingerprint(two) == fingerprint(spec.run())

    graph = spec.topology.graph
    moved = spec.topology.clients[-1]
    graph.add_node(99, role="transit")
    graph.add_edge(1, 99, latency=0.002, bandwidth=125_000_000.0)
    graph.add_edge(moved, 99, **graph[moved][1])
    graph.remove_edge(moved, 1)
    with pytest.raises(ScenarioError, match=r"narrow link \(0, 1\)"):
        spec.run_sharded(3)
    # A core link that a fault model will degrade queues while it is slow:
    # the same rule applies to it for the whole run.
    from repro.eval.scenario import DegradeModel
    seeded = make_seeded()
    uplink = next((u, v) for u, v, data in seeded.build().topology.graph.edges(
        data=True) if data["bandwidth"] > 1e9)
    slowed = replace(seeded, models=seeded.models + (
        DegradeModel(at=5.0, links=(uplink,), bandwidth_factor=0.01),))
    with pytest.raises(ScenarioError, match="narrow link"):
        slowed.run_sharded(4)
    assert fingerprint(slowed.run_sharded(1)) == fingerprint(slowed.run())


@pytest.mark.determinism
def test_sharded_run_after_the_stack_has_been_on_the_wire(sharded_4):
    """The live codec and the sharded kernel share the registry's message
    types: encoding one message of each must not stop a later sharded run
    from pickling them (no reliance on which test file ran first)."""
    from repro.runtime.messages import Message, WireCodec

    stack = make_seeded().agents()
    codec = WireCodec.for_agents(stack)
    for agent_class in stack:
        for message_type in agent_class.MESSAGE_TYPES:
            encoded = codec.encode_message(Message(
                type=message_type, protocol=agent_class.PROTOCOL))
            assert codec.decode_message(encoded)[0].type is message_type
    assert fingerprint(make_seeded().run_sharded(2)) == fingerprint(sharded_4)


def test_sharded_run_did_real_cross_shard_work(sharded_4, single_run):
    info = sharded_4.shard_info
    assert info["num_shards"] == 4
    assert info["cross_shard_packets"] > 0
    assert info["barriers"] > 1
    assert 0.0 < info["lookahead"] < float("inf")
    # All 40 nodes came up under both kernels.
    assert sharded_4.metrics["nodes.alive"] == 40.0
    assert single_run.metrics["nodes.alive"] == 40.0
