"""Replicated-KV and pub/sub application tests: the quorum edge cases.

The interesting KV behaviors are the degraded ones — a replica crashing
mid-read, a crash/recover cycle wiping a replica's store (stale epoch), and
partition-healed divergence mended by the anti-entropy sweep — so each gets
a scripted experiment here, built from a :class:`ScenarioSpec` like every
other run.
"""

from __future__ import annotations

import pytest

from repro.apps import KvStore, PubSub
from repro.eval import ChurnModel, ScenarioSpec
from repro.eval.library import FAST_FAILURE
from repro.protocols import chord_agent, scribe_stack


def build_kv_experiment(num_nodes=10, seed=11, *, failure_config=None):
    experiment = ScenarioSpec(
        name="kv", agents=[chord_agent()], num_nodes=num_nodes, duration=60.0,
        seed=seed, failure_config=failure_config,
        models=(ChurnModel(join="immediate"),)).run().experiment
    stores = {node.address: KvStore(node, replicas=3, write_quorum=2,
                                    read_quorum=2)
              for node in experiment.nodes}
    return experiment, stores


def holders_of(stores, key):
    return sorted(address for address, store in stores.items()
                  if key in store.store)


def root_of(stores, key):
    """The holder whose replica set is the other holders (the key's root)."""
    holders = set(holders_of(stores, key))
    for address in sorted(holders):
        targets = set(stores[address].replica_targets()) | {address}
        if holders <= targets:
            return address
    raise AssertionError(f"no root among holders {sorted(holders)}")


def test_quorum_validation():
    experiment, stores = build_kv_experiment(num_nodes=4, seed=3)
    node = experiment.nodes[0]
    with pytest.raises(ValueError, match="replicas"):
        KvStore(node, replicas=0)
    with pytest.raises(ValueError, match="quorums"):
        KvStore(node, replicas=3, write_quorum=4)
    with pytest.raises(ValueError, match="quorums"):
        KvStore(node, replicas=3, read_quorum=0)


def test_put_then_get_reads_written_version():
    experiment, stores = build_kv_experiment()
    client = stores[experiment.nodes[0].address]
    key = 12345
    client.put(key, version=7, seqno=1)
    experiment.run(5.0)
    assert [record.kind for record in client.completed] == ["put"]
    assert client.completed[0].acks >= 2
    # The write landed on a full replica set.
    assert len(holders_of(stores, key)) == 3

    client.get(key, seqno=2)
    experiment.run(5.0)
    assert [record.kind for record in client.completed] == ["put", "get"]
    read = client.completed[-1]
    assert read.version == 7
    assert read.acks >= 2


def test_read_completes_with_replica_crashed_mid_read():
    """Q=2 of N=3: a non-root replica dying between write and read must not
    cost the quorum or the version."""
    experiment, stores = build_kv_experiment(failure_config=FAST_FAILURE)
    client = stores[experiment.nodes[0].address]
    key = 777
    client.put(key, version=9, seqno=1)
    experiment.run(5.0)
    root = root_of(stores, key)
    victim = next(address for address in holders_of(stores, key)
                  if address != root)
    experiment.crash_node(experiment.node(victim))
    # Let failure detection evict the corpse from routing tables so the
    # read's route does not dead-end on the crashed hop.
    experiment.run(20.0)

    client.get(key, seqno=2)
    experiment.run(5.0)
    read = client.completed[-1]
    assert read.kind == "get"
    assert read.version == 9
    # Root + surviving replica answered; the corpse did not.
    assert read.acks == 2


def test_stale_epoch_replica_recovers_empty_and_read_still_correct():
    """Fail-stop loses the store: after crash/recover the replica's epoch
    check wipes its state, it answers reads with version -1, and the quorum
    max still returns the real version from the survivors."""
    experiment, stores = build_kv_experiment(failure_config=FAST_FAILURE)
    client = stores[experiment.nodes[0].address]
    key = 4242
    client.put(key, version=5, seqno=1)
    experiment.run(5.0)
    root = root_of(stores, key)
    victim = next(address for address in holders_of(stores, key)
                  if address != root)
    victim_node = experiment.node(victim)
    experiment.crash_node(victim_node)
    experiment.run(2.0)
    experiment.recover_node(victim_node)
    experiment.run(10.0)

    # The store survives as an object but its state must not survive the
    # crash: the lazy epoch check wipes it on the next touch.
    stores[victim]._check_epoch()
    assert key not in stores[victim].store

    client.get(key, seqno=2)
    experiment.run(5.0)
    read = client.completed[-1]
    assert read.kind == "get"
    assert read.version == 5


def test_partition_healed_divergence_mended_by_repair():
    """A minority cut off from the replica set falls behind; after the heal
    an anti-entropy sweep re-routes every stored key to its current root,
    restoring the full replica set at the newest version."""
    experiment, stores = build_kv_experiment(num_nodes=10, seed=11,
                                             failure_config=FAST_FAILURE)
    client = stores[experiment.nodes[0].address]
    key = 31337
    client.put(key, version=1, seqno=1)
    experiment.run(5.0)
    holders = holders_of(stores, key)
    assert len(holders) == 3
    root = root_of(stores, key)
    straggler = next(address for address in holders if address != root)

    # Cut one replica off, then write a newer version from the majority side.
    indices = {node.address: index
               for index, node in enumerate(experiment.nodes)}
    majority = [index for address, index in indices.items()
                if address != straggler]
    experiment.partition([majority, [indices[straggler]]])
    client.put(key, version=2, seqno=2)
    experiment.run(30.0)
    assert client.completed[-1].kind == "put"
    # Divergence: the cut-off replica still serves the old version.
    assert stores[straggler].store[key] == 1

    experiment.heal_partition()
    experiment.run(30.0)
    for store in stores.values():
        store.repair()
    experiment.run(10.0)

    client.get(key, seqno=3)
    experiment.run(5.0)
    assert client.completed[-1].version == 2
    # Anti-entropy re-established a full replica set at the newest version
    # (membership may have shifted across the partition, so the set need not
    # be the original holders; a stale ex-replica keeping v1 is harmless
    # because reads never consult it).
    v2_holders = [address for address in holders_of(stores, key)
                  if stores[address].store[key] == 2]
    assert len(v2_holders) >= 3


def test_kv_chains_foreign_payloads_to_previous_handler():
    experiment, stores = build_kv_experiment(num_nodes=4, seed=3)
    node = experiment.nodes[1]
    seen = []
    # KvStore was installed on top of this handler by build_kv_experiment,
    # so re-create the layering explicitly on a fresh node pair.
    node.macedon_register_handlers(
        deliver=lambda payload, size, mtype: seen.append(payload))
    store = KvStore(node)
    experiment.nodes[0].macedon_route(node.highest_agent.my_key,
                                      "plain-text", 64)
    experiment.run(5.0)
    assert "plain-text" in seen
    assert store.completed == []


def build_pubsub_experiment(num_nodes=12, seed=21):
    experiment = ScenarioSpec(
        name="pubsub", agents=scribe_stack("pastry"), num_nodes=num_nodes,
        duration=60.0, seed=seed,
        models=(ChurnModel(join="immediate"),)).run().experiment
    apps = {node.address: PubSub(node) for node in experiment.nodes}
    return experiment, apps


def test_pubsub_topic_delivery_and_dedup():
    experiment, apps = build_pubsub_experiment()
    addresses = [node.address for node in experiment.nodes]
    publisher = apps[addresses[0]]
    members = addresses[1:7]
    publisher.create_topic(3)
    experiment.run(2.0)
    for address in members:
        apps[address].subscribe(3)
    experiment.run(10.0)

    for seqno in range(5):
        publisher.publish(3, seqno, size=500)
        experiment.run(1.0)
    experiment.run(10.0)

    for address in members:
        delivered = {delivery.seqno for delivery in apps[address].deliveries}
        assert delivered == {0, 1, 2, 3, 4}, address
        assert apps[address].duplicates == 0
        for delivery in apps[address].deliveries:
            assert delivery.topic == 3
            assert delivery.source == addresses[0]
            assert delivery.latency > 0
    # Scribe never redelivers to the origin.
    assert publisher.deliveries == []
    # Non-members heard nothing.
    for address in addresses[7:]:
        assert apps[address].deliveries == []


def test_pubsub_unsubscribe_stops_delivery():
    experiment, apps = build_pubsub_experiment(num_nodes=8, seed=9)
    addresses = [node.address for node in experiment.nodes]
    publisher = apps[addresses[0]]
    publisher.create_topic(0)
    experiment.run(2.0)
    for address in addresses[1:4]:
        apps[address].subscribe(0)
    experiment.run(10.0)

    publisher.publish(0, 100)
    experiment.run(5.0)
    leaver = apps[addresses[1]]
    assert [delivery.seqno for delivery in leaver.deliveries] == [100]
    leaver.unsubscribe(0)
    experiment.run(5.0)
    publisher.publish(0, 101)
    experiment.run(5.0)
    assert [delivery.seqno for delivery in leaver.deliveries] == [100]
    assert {delivery.seqno for delivery in apps[addresses[2]].deliveries} \
        == {100, 101}
