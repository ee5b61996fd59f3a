"""Determinism pins for the observability layer's *disabled* path.

The contract (ISSUE: observability): a run with ``obs=None`` executes the
exact historical code paths — same RNG draws, same event ordering, same
metrics — and a run with obs *enabled* observes without perturbing.  Both
halves are pinned here against baselines captured with observability off
(first at HEAD~ of the change that introduced ``repro.obs``):

* a low-level engine/emulator fingerprint (fixed seed, 64 hosts, 2 000
  packets) byte-compares delivery, latency-sum and link-stress numbers,
  and repeats exactly when run twice in one process;
* a full churn scenario (joins, crashes, a route workload, the failure
  detector) byte-compares every scenario metric for two seeds;
* the same churn scenario with full observability enabled must produce
  the identical metrics dict — tracing is read-only — and, with causal
  tracing at ``trace_level="med"``, the identical obs snapshot and trace
  file bytes (pinned before the causal log became one class for both
  modes);
* a Scribe-over-Pastry pub/sub scenario with two crashes and recoveries
  byte-compares every metric for two seeds, so host-side speed-ups of the
  Pastry routines (the leaf-set memo) are held to moving nothing simulated.

Floats are compared via ``repr`` so drift of even one ULP fails.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.eval.library import resolve_protocol
from repro.eval.scenario import (ChurnModel, CrashModel, ScenarioSpec,
                                 WorkloadModel)
from repro.obs import ObsConfig
from repro.network.emulator import NetworkEmulator
from repro.network.packet import Packet
from repro.network.topology import transit_stub_topology
from repro.runtime.engine import Simulator
from repro.runtime.failure import FailureDetectorConfig

# Captured on the commit preceding the observability layer and re-captured,
# obs off, when the link physics became causal (ISSUE 21; old -> new in
# docs/PERFORMANCE.md "Re-pinned baselines"), and CHURN_BASELINES once more
# when reliable-transport ACKs became held and piggybacked and a rejoining
# Chord node stopped being told it is its own successor ("Re-pinned
# baselines (delayed ACKs)"), and again when Chord's maintenance moved to
# its best-effort transport ("Re-pinned baselines (best-effort
# maintenance)"), and when Chord began answering from its successor chain
# and folded the notify into get_state ("Re-pinned baselines (successor
# chain)"), and when each host began keeping one restart epoch per peer
# and a watch began counting silence from its start (CHANGES.md lists
# old -> new): obs=None must keep reproducing these bytes until the
# simulated behaviour is changed on purpose again.  The ring and post-fault
# keys were added, every other value unchanged, when the simulator began
# scoring them as live runs do (no simulated event moved).
FINGERPRINT_BASELINE = {
    "packets_sent": 2000,
    "packets_delivered": 1978,
    "packets_dropped": 22,
    "bytes_delivered": 1491960,
    "events_processed": 3984,
    "final_time": "10.084881915227912",
    "latency_count": 1978,
    "latency_sum": "151.83162321439826",
    "max_link_stress": 61,
}

CHURN_BASELINES = {
    1: {
        "churn.churn_cycles": "1.0",
        "churn.joins": "10.0",
        "net.bytes_delivered": "270912.0",
        "net.packets_delivered": "6313.0",
        "net.packets_dropped": "36.0",
        "net.packets_sent": "6351.0",
        "nodes.alive": "10.0",
        "nodes.crashes": "1.0",
        "nodes.recoveries": "1.0",
        "ring.correct_successor_fraction": "1.0",
        "sim.events_processed": "11136.0",
        "workload.deliveries": "58.0",
        "workload.duplicates": "0.0",
        "workload.latency_mean": "0.06411647075372759",
        "workload.latency_p95": "0.1285341131686124",
        "workload.post_fault_probes": "12.0",
        "workload.post_fault_success_ratio": "1.0",
        "workload.sent": "59.0",
        "workload.skipped": "1.0",
        "workload.success_ratio": "0.9830508474576272",
    },
    2: {
        "churn.churn_cycles": "1.0",
        "churn.joins": "10.0",
        "net.bytes_delivered": "277196.0",
        "net.packets_delivered": "6287.0",
        "net.packets_dropped": "53.0",
        "net.packets_sent": "6344.0",
        "nodes.alive": "10.0",
        "nodes.crashes": "1.0",
        "nodes.recoveries": "1.0",
        "ring.correct_successor_fraction": "1.0",
        "sim.events_processed": "11136.0",
        "workload.deliveries": "56.0",
        "workload.duplicates": "0.0",
        "workload.latency_mean": "0.06799961926568322",
        "workload.latency_p95": "0.13366041834381548",
        "workload.post_fault_probes": "32.0",
        "workload.post_fault_success_ratio": "0.96875",
        "workload.sent": "59.0",
        "workload.skipped": "1.0",
        "workload.success_ratio": "0.9491525423728814",
    },
}

# Captured on the commit before Pastry's leaf_update memoised its farthest
# leaf, and re-captured once when Pastry became prefix routing over a table
# and a leaf set (docs/PERFORMANCE.md "Re-pinned baselines (prefix
# Pastry)"): deliveries, coverage and success are unchanged, the network
# carries 40 % fewer packets.  Re-captured again when each host began keeping
# one restart epoch per peer and a watch began counting silence from its
# start (deliveries unchanged; CHANGES.md lists old -> new).  A Pastry routine change that claims to move
# no simulated event must keep reproducing these bytes.
PASTRY_BASELINES = {
    1: {
        "churn.churn_cycles": "0.0",
        "churn.joins": "16.0",
        "crash.victims": "2.0",
        "net.bytes_delivered": "1933584.0",
        "net.packets_delivered": "8955.0",
        "net.packets_dropped": "131.0",
        "net.packets_sent": "9096.0",
        "nodes.alive": "16.0",
        "nodes.crashes": "2.0",
        "nodes.recoveries": "2.0",
        "sim.events_processed": "14260.0",
        "workload.coverage": "0.8927777777777778",
        "workload.deliveries": "1607.0",
        "workload.duplicates": "0.0",
        "workload.expected": "1800.0",
        "workload.latency_mean": "0.11021214819849473",
        "workload.latency_p95": "0.156277283334731",
        "workload.post_fault_probes": "28.0",
        "workload.post_fault_success_ratio": "1.0",
        "workload.publishes_per_sec": "1.45",
        "workload.sent": "116.0",
        "workload.skipped": "4.0",
        "workload.success_ratio": "1.0",
    },
    2: {
        "churn.churn_cycles": "0.0",
        "churn.joins": "16.0",
        "crash.victims": "2.0",
        "net.bytes_delivered": "1932972.0",
        "net.packets_delivered": "8990.0",
        "net.packets_dropped": "133.0",
        "net.packets_sent": "9133.0",
        "nodes.alive": "16.0",
        "nodes.crashes": "2.0",
        "nodes.recoveries": "2.0",
        "sim.events_processed": "14304.0",
        "workload.coverage": "0.8944444444444445",
        "workload.deliveries": "1610.0",
        "workload.duplicates": "0.0",
        "workload.expected": "1800.0",
        "workload.latency_mean": "0.09458305384747455",
        "workload.latency_p95": "0.12989205046715568",
        "workload.post_fault_probes": "28.0",
        "workload.post_fault_success_ratio": "1.0",
        "workload.publishes_per_sec": "1.45",
        "workload.sent": "116.0",
        "workload.skipped": "4.0",
        "workload.success_ratio": "1.0",
    },
}


def engine_fingerprint(seed: int = 7, num_hosts: int = 64,
                       num_packets: int = 2_000) -> dict:
    """The one copy of the fingerprint workload."""
    simulator = Simulator(seed=seed)
    topology = transit_stub_topology(num_hosts, seed=seed)
    emulator = NetworkEmulator(simulator, topology, random_loss_rate=0.01)
    addresses = [emulator.attach_host().address for _ in range(num_hosts)]

    latencies: list[float] = []

    def on_receive(packet: Packet) -> None:
        latencies.append(simulator.now - packet.created_at)

    for address in addresses:
        emulator.set_receive_callback(address, on_receive)

    rng = simulator.fork_rng("bench-traffic")

    def send_one(src: int, dst: int, size: int) -> None:
        emulator.send(Packet(src=src, dst=dst, payload=None, size=size),
                      payload_tag=f"probe-{size % 7}")

    for index in range(num_packets):
        src = rng.randrange(num_hosts)
        dst = rng.randrange(num_hosts)
        if dst == src:
            dst = (dst + 1) % num_hosts
        size = rng.randint(100, 1400)
        simulator.schedule(index * 0.005, send_one,
                           addresses[src], addresses[dst], size)
    simulator.run()

    stress = max((view.max_stress for view in emulator.link_stats().values()),
                 default=0)
    # Added in arrival order, not with sum(): that is compensated from
    # Python 3.12, and the pin must not depend on the interpreter.
    latency_sum = 0.0
    for latency in latencies:
        latency_sum += latency
    return {
        "packets_sent": emulator.stats.packets_sent,
        "packets_delivered": emulator.stats.packets_delivered,
        "packets_dropped": emulator.stats.packets_dropped,
        "bytes_delivered": emulator.stats.bytes_delivered,
        "events_processed": simulator.events_processed,
        "final_time": repr(simulator.now),
        "latency_count": len(latencies),
        "latency_sum": repr(latency_sum),
        "max_link_stress": stress,
    }


def churn_spec(seed: int, obs: ObsConfig | None = None) -> ScenarioSpec:
    duration = 120.0
    return ScenarioSpec(
        name="obs-pin-churn",
        agents=resolve_protocol("chord"),
        num_nodes=10,
        duration=duration,
        seed=seed,
        failure_config=FailureDetectorConfig(failure_timeout=10.0,
                                             heartbeat_timeout=4.0,
                                             check_interval=1.0),
        models=(ChurnModel(join="staggered", join_spacing=0.5,
                           churn_fraction=0.10,
                           churn_start=duration * 0.25,
                           churn_end=duration * 0.85,
                           downtime=15.0),
                WorkloadModel(kind="route", source=-1,
                              start=duration * 0.15,
                              packets=int(duration // 2), gap=1.5)),
        obs=obs)


def pastry_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="obs-pin-scribe-pastry",
        agents=resolve_protocol("scribe-pastry"),
        num_nodes=16,
        duration=90.0,
        seed=seed,
        failure_config=FailureDetectorConfig(failure_timeout=10.0,
                                             heartbeat_timeout=4.0,
                                             check_interval=1.0),
        models=(ChurnModel(join="staggered", join_spacing=0.3),
                CrashModel(at=40.0, victims=(5, 9), recover_after=20.0),
                WorkloadModel(kind="pubsub", source=-1, start=10.0,
                              packets=120, gap=0.5, topics=2, fanout=0)))


def byte_metrics(result) -> dict[str, str]:
    return {key: repr(value) for key, value in sorted(result.metrics.items())}


def test_engine_fingerprint_is_byte_identical_to_pre_obs_baseline():
    assert engine_fingerprint() == FINGERPRINT_BASELINE


@pytest.mark.determinism
def test_fingerprint_workload_is_deterministic():
    """A second run in the same process repeats the first byte for byte, so
    no process-local state (packet ids, caches) leaks between runs."""
    assert engine_fingerprint() == engine_fingerprint()


@pytest.mark.parametrize("seed", sorted(CHURN_BASELINES))
def test_churn_metrics_are_byte_identical_to_pre_obs_baseline(seed):
    assert byte_metrics(churn_spec(seed).run()) == CHURN_BASELINES[seed]


@pytest.mark.parametrize("seed", sorted(PASTRY_BASELINES))
def test_scribe_over_pastry_metrics_are_byte_identical_to_baseline(
        seed, monkeypatch):
    pastry = next(cls for cls in resolve_protocol("scribe-pastry").resolve()
                  if cls.PROTOCOL == "pastry")
    method = next(spec.method for spec in pastry.TRANSITIONS
                  if (spec.kind, spec.name) == ("api", "error"))
    error = getattr(pastry, method)
    leaves_removed = []

    def counting_error(self, error_addr):
        before = len(self.leafset)
        error(self, error_addr)
        leaves_removed.append(before - len(self.leafset))

    monkeypatch.setattr(pastry, method, counting_error)
    assert byte_metrics(pastry_spec(seed).run()) == PASTRY_BASELINES[seed]
    # The crashes reached the leaf sets, so the memo's invalidation ran.
    assert sum(leaves_removed) >= 1


def test_enabling_observability_does_not_perturb_metrics(tmp_path):
    obs = ObsConfig(trace_path=str(tmp_path / "trace.jsonl"),
                    trace_level="med", causal=True,
                    snapshot_path=str(tmp_path / "obs.json"))
    observed = churn_spec(1, obs=obs).run()
    assert byte_metrics(observed) == CHURN_BASELINES[1]
    # And it really did observe: the snapshot carries trace/causal activity.
    assert observed.obs["counters"]["trace.records"] > 0
    assert observed.obs["counters"]["causal.traces"] > 0


# The obs-on half of the same churn run, taken before the causal log became
# one class for both modes: the snapshot's instruments and the trace file's
# bytes.  The simulator's causal tracing (ids, hops, latencies, route
# lengths) and every record it streams must reproduce them exactly.  The
# snapshot was re-pinned once, when ROUTE_HOP_BOUNDS began at 2 so that
# bucket 0 holds the one-hop routes: the old run's 3 090 route lengths,
# re-bucketed, give the new causal.route_hops row (139 one-hop routes in
# bucket 0), and every other instrument is byte-identical.  Both moved
# with CHURN_BASELINES when each host began keeping one restart epoch per
# peer.
OBS_ON_SNAPSHOT_SHA256 = (
    "f28005c70d7c434b416fd7791700e69237c61ac78fc24782d68b1fa2c938eba0")
OBS_ON_TRACE_SHA256 = (
    "717c7be90ff6eb9ea6ca2a0d4a7293f4a96a7ab4de468dbcdd0a3493ab8c6b76")


def test_obs_on_snapshot_and_trace_file_are_byte_identical(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    obs = churn_spec(1, obs=ObsConfig(trace_path=str(trace_path),
                                      trace_level="med", causal=True)).run().obs
    instruments = json.dumps(
        {key: obs[key] for key in ("counters", "gauges", "histograms")},
        sort_keys=True, default=repr)
    assert hashlib.sha256(instruments.encode()).hexdigest() \
        == OBS_ON_SNAPSHOT_SHA256
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() \
        == OBS_ON_TRACE_SHA256
