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
  the identical metrics dict — tracing is read-only;
* a Scribe-over-Pastry pub/sub scenario with two crashes and recoveries
  byte-compares every metric for two seeds, so host-side speed-ups of the
  Pastry routines (the leaf-set memo) are held to moving nothing simulated.

Floats are compared via ``repr`` so drift of even one ULP fails.
"""

from __future__ import annotations

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
# chain)"): obs=None must keep reproducing these bytes until the simulated
# behaviour is changed on purpose again.  The ring and post-fault keys were
# added, every other value unchanged, when the simulator began scoring them
# as live runs do (no simulated event moved).
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
        "net.bytes_delivered": "270932.0",
        "net.packets_delivered": "6316.0",
        "net.packets_dropped": "36.0",
        "net.packets_sent": "6354.0",
        "nodes.alive": "10.0",
        "nodes.crashes": "1.0",
        "nodes.recoveries": "1.0",
        "ring.correct_successor_fraction": "1.0",
        "sim.events_processed": "11141.0",
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
        "net.bytes_delivered": "277216.0",
        "net.packets_delivered": "6290.0",
        "net.packets_dropped": "53.0",
        "net.packets_sent": "6347.0",
        "nodes.alive": "10.0",
        "nodes.crashes": "1.0",
        "nodes.recoveries": "1.0",
        "ring.correct_successor_fraction": "1.0",
        "sim.events_processed": "11141.0",
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
# leaf: a Pastry routine change that claims to move no simulated event must
# keep reproducing these bytes.
PASTRY_BASELINES = {
    1: {
        "churn.churn_cycles": "0.0",
        "churn.joins": "16.0",
        "crash.victims": "2.0",
        "net.bytes_delivered": "2184148.0",
        "net.packets_delivered": "14825.0",
        "net.packets_dropped": "174.0",
        "net.packets_sent": "15007.0",
        "nodes.alive": "16.0",
        "nodes.crashes": "2.0",
        "nodes.recoveries": "2.0",
        "sim.events_processed": "23070.0",
        "workload.coverage": "0.8927777777777778",
        "workload.deliveries": "1607.0",
        "workload.duplicates": "0.0",
        "workload.expected": "1800.0",
        "workload.latency_mean": "0.11020311344759669",
        "workload.latency_p95": "0.15634775282949676",
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
        "net.bytes_delivered": "2182832.0",
        "net.packets_delivered": "14813.0",
        "net.packets_dropped": "184.0",
        "net.packets_sent": "15006.0",
        "nodes.alive": "16.0",
        "nodes.crashes": "2.0",
        "nodes.recoveries": "2.0",
        "sim.events_processed": "22961.0",
        "workload.coverage": "0.8944444444444445",
        "workload.deliveries": "1610.0",
        "workload.duplicates": "0.0",
        "workload.expected": "1800.0",
        "workload.latency_mean": "0.09458854698376534",
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
    return {
        "packets_sent": emulator.stats.packets_sent,
        "packets_delivered": emulator.stats.packets_delivered,
        "packets_dropped": emulator.stats.packets_dropped,
        "bytes_delivered": emulator.stats.bytes_delivered,
        "events_processed": simulator.events_processed,
        "final_time": repr(simulator.now),
        "latency_count": len(latencies),
        "latency_sum": repr(sum(latencies)),
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
    pastry = next(cls for cls in resolve_protocol("scribe-pastry")()
                  if cls.PROTOCOL == "pastry")
    method = next(spec.method for spec in pastry.TRANSITIONS
                  if (spec.kind, spec.name) == ("api", "error"))
    error = getattr(pastry, method)
    leaves_removed = []

    def counting_error(self, ctx):
        before = len(self.leafset)
        error(self, ctx)
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
