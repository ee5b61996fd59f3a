"""The shared workload plane, without a socket: draw, live plan, score.

One :class:`WorkloadModel` is drawn, issued, observed and scored by the same
code under the simulator and the live cluster.  These
tests pin the parts that make that true and need no process or network:
the live plan is the simulator's own draw times ``time_scale``, the
scorer is a pure function of the pooled payloads, and one node's share
dedups its own stream while chaining every upcall to the application.
"""

from __future__ import annotations

import random

import pytest

from repro.apps import AppPayload
from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, Stack
from repro.eval.workload import (NodeWorkload, WorkloadModel,
                                 WorkloadObservations, WorkloadPlan)
from repro.protocols import randtree_agent

KEY_SPACE = 2 ** 32


def live(model, seed=3):
    """The workload plan a live deployment of *model* on 5 nodes runs."""
    spec = ScenarioSpec(name="plan", agents=resolve_protocol("chord"),
                        num_nodes=5, duration=80.0, seed=seed,
                        models=(model,))
    (drawn,) = spec.draw()
    return drawn.plan


# ------------------------------------------------------------------ the plan
@pytest.mark.parametrize("model", [
    WorkloadModel(kind="route", source=-1, packets=12),
    WorkloadModel(kind="multicast", packets=6),
    WorkloadModel(kind="kv", packets=20, keys=8, clients=2, repair_gap=1.5),
    WorkloadModel(kind="pubsub", source=-1, packets=9, topics=3, fanout=3),
])
def test_live_plan_is_the_simulators_draw_on_the_wall_clock(model):
    plan = live(model)
    # Every process (and the coordinator) computes it from the config alone.
    assert plan == live(model)
    if model.kind != "multicast":   # a fixed-source burst draws nothing
        assert plan != live(model, seed=4)

    drawn = model.draw(5, KEY_SPACE, random.Random("3:scenario"), 80.0)
    # The simulated schedule, untouched: who does what, and when in spec
    # seconds, whatever wall time the deployment runs them in.
    assert plan == drawn
    # The indices partition the plan: each op runs in exactly one process.
    shares = [[op for op in plan.ops if op.node == index]
              for index in range(5)]
    assert sum(len(share) for share in shares) == len(plan.ops)


def test_live_honours_clients_fanout_source_and_repair():
    nodes = 5
    kv = live(WorkloadModel(kind="kv", packets=30, clients=2,
                            repair_gap=1.0, gap=0.5))
    assert {op.node for op in kv.ops if op.verb in ("put", "get")} == {0, 1}
    sweeps = [op for op in kv.ops if op.verb == "repair"]
    assert sweeps and {op.node for op in sweeps} == set(range(nodes))
    assert kv.issued_writes == {(op.args[1], op.args[0])
                                for op in kv.ops if op.verb == "put"}

    pubsub = live(WorkloadModel(kind="pubsub", source=1, packets=8,
                                topics=2, fanout=3))
    for topic in range(2):
        members = [op.node for op in pubsub.ops
                   if op.verb == "subscribe" and op.args == (topic,)]
        assert len(members) == len(set(members)) == 3
    assert {op.node for op in pubsub.ops
            if op.verb in ("create_topic", "publish")} == {1}
    # Three subscribers a topic, minus the publisher where it is one.
    subscribed = {(op.args[0], op.node) for op in pubsub.ops
                  if op.verb == "subscribe"}
    assert pubsub.expected == sum(
        3 - ((op.args[1], 1) in subscribed)
        for op in pubsub.ops if op.verb == "publish")

    route = live(WorkloadModel(kind="route", source=1, packets=6))
    assert {op.node for op in route.ops} == {1}


# ---------------------------------------------------------------- the scorer
def run_sim(protocol, model, seed=5):
    spec = ScenarioSpec(
        name="workload-plane", agents=resolve_protocol(protocol),
        num_nodes=6, duration=60.0, seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.5), model))
    result = spec.run()
    return result, result.experiment.compiled_models[-1]


def split(payload, parts):
    """Deal one payload's observations across *parts* processes."""
    out = [{"sent": [], "skipped": 0, "duplicates": 0, "records": [],
            "stores": []} for _ in range(parts)]
    for key in ("sent", "records", "stores"):
        for position, item in enumerate(payload[key]):
            out[position % parts][key].append(item)
    out[-1]["skipped"] = payload["skipped"]
    out[0]["duplicates"] = payload["duplicates"]
    return out


@pytest.mark.parametrize("protocol, model", [
    ("chord", WorkloadModel(kind="route", source=-1, start=25.0, packets=12,
                            gap=1.0)),
    ("chord", WorkloadModel(kind="kv", start=25.0, packets=16, gap=1.0,
                            keys=8, read_fraction=0.5)),
    ("scribe-pastry", WorkloadModel(kind="pubsub", source=-1, start=20.0,
                                    packets=8, gap=1.0, topics=2)),
])
def test_score_is_one_pure_formula_over_pooled_payloads(protocol, model):
    result, compiled = run_sim(protocol, model)
    payload = compiled.shard_payload()
    assert payload["records"], "the run observed something to score"

    # The simulator's metrics are the scorer applied to its one payload.
    scored = model.score(compiled.plan, [payload])
    assert compiled.metrics() == scored
    assert {f"workload.{key}": value for key, value in scored.items()}.items() \
        <= result.metrics.items()

    # Any partition of the observations, in any order, scores identically.
    two = split(payload, 2)
    pooled = model.score(compiled.plan, two)
    assert model.score(compiled.plan, two[::-1]) == pooled
    three = split(payload, 3)
    random.Random(1).shuffle(three)
    assert model.score(compiled.plan, three) == pooled
    # One process reports probes in arrival order, several in canonical
    # order: the same numbers, up to float accumulation in the mean.
    assert pooled == pytest.approx(scored)


def test_a_dead_incarnations_probe_is_neither_sent_nor_lost():
    model = WorkloadModel(kind="route", source=-1, packets=4)
    plan = WorkloadPlan([], window=1.0)
    survivors = {"sent": [(0, 1.0), (1, 2.0)], "skipped": 0,
                 "duplicates": 0, "stores": [],
                 # seqno 3 was sent by a process that was killed before it
                 # could report; its delivery is seen, its send record not.
                 "records": [(2, 0, 0.01), (3, 1, 0.02), (2, 3, 0.01)]}
    scored = model.score(plan, [survivors])
    assert scored["sent"] == 2.0
    assert scored["deliveries"] == 3.0
    assert scored["success_ratio"] == 1.0

    lossy = dict(survivors, records=[(2, 0, 0.01), (2, 3, 0.01)])
    assert model.score(plan, [lossy])["success_ratio"] == 0.5
    assert model.score(plan, [dict(lossy, sent=[])])["success_ratio"] == 0.0


# ------------------------------------------------------- issue and observe
def test_multicast_stream_reaches_every_receiver():
    """10 packets/s for 10 s down a converged 12-node RandTree."""
    spec = ScenarioSpec(
        name="stream", agents=Stack("randtree"), num_nodes=12,
        duration=80.0, seed=61,
        models=(ChurnModel(join="immediate"),
                WorkloadModel(kind="multicast", source=0, group=1,
                              start=60.0, packets=100, gap=0.1)))
    result = spec.run()
    assert result.metrics["workload.sent"] == 100
    per_receiver = result.experiment.compiled_models[-1] \
        .observations.per_receiver
    for node in result.experiment.nodes[1:]:
        latencies = per_receiver.get(node.address, [])
        assert len(latencies) >= 90
        assert all(latency > 0 for latency in latencies)


def test_node_share_dedups_its_stream_and_chains_the_rest():
    experiment = ScenarioSpec(name="share", agents=[randtree_agent()],
                              num_nodes=2, duration=1.0, seed=61).build()
    node = experiment.nodes[1]
    previous = []
    node.macedon_register_handlers(
        deliver=lambda payload, size, mtype: previous.append(payload))
    observations = WorkloadObservations()
    share = NodeWorkload(node, WorkloadModel(), 5, observations)
    experiment.run(1.0)     # probes are timed on the node's driver clock

    payload = AppPayload(seqno=1, sent_at=0.0, source=9, stream_id=5)
    other = AppPayload(seqno=1, sent_at=0.0, source=9, stream_id=6)
    deliver = node.highest_agent.upcall_deliver
    deliver(payload, 100, 0)
    deliver(payload, 100, 0)                    # duplicate
    deliver(other, 100, 0)                      # other stream
    deliver("not-a-payload", 100, 0)
    assert observations.deliveries == 1
    assert observations.duplicates == 1
    assert observations.per_receiver == {node.address: [1.0]}
    # The application's own handler still sees every upcall.
    assert previous == [payload, payload, other, "not-a-payload"]
    share.restore()
    deliver(payload, 100, 0)
    assert observations.deliveries == 1 and observations.duplicates == 1
