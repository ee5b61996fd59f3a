#!/usr/bin/env python
"""Run the simulation-core microbenchmarks and record results in BENCH_core.json.

Four workloads are measured:

* **kernel** — events/second through :class:`repro.runtime.engine.Simulator`,
  both the handle-returning ``schedule()`` path and (when available) the
  fire-and-forget ``schedule_fast()`` path;
* **emulator** — packets/second through a ~600-node transit-stub
  :class:`repro.network.emulator.NetworkEmulator`, i.e. the full
  ``send() -> per-link transit -> deliver`` pipeline that every figure
  reproduction funnels through;
* **scenario_churn** — a full churn scenario (registry-compiled Chord from
  ``specs/chord.mac``, 10% membership cycling, route-probe workload)
  executed by the scenario engine across three seeds, so churn-path
  performance (crash/recover, targeted route invalidation, failure
  detection) is tracked alongside the kernel and emulator numbers;
* **scale** — the hundreds-of-nodes experiments: 200 registry-compiled
  Chord nodes under a route-probe workload and 200 Scribe-over-Pastry
  nodes multicasting to one group, recording wall-clock, events/s, and
  per-seed-stable fidelity metrics at ModelNet-like population sizes;
* **app** — the application layer over the overlays: a Zipf-skewed
  replicated-KV workload (3-way replication, W=2/Q=2 quorums) on 200
  registry-compiled Chord nodes and topic pub/sub over Scribe-over-Pastry,
  both executed through the ``repro.run`` facade; quorum success, phantom
  reads, replica coverage, and pub/sub coverage are per-seed-stable
  fidelity metrics;
* **adversarial** — two curated library scenarios
  (``repro/eval/library.py``): a Chord flash crowd and Scribe-over-Pastry
  multicast through a flapping directed partition, run under runtime
  invariant checking, so the stressed fault paths (burst joins, directed
  cuts, fault-branch routing) are performance-tracked and their fidelity
  metrics pinned per seed;
* **shard** — the multi-process sharded kernel
  (:mod:`repro.runtime.sharded`): a 1,000-node Chord overlay and a
  Scribe-over-Pastry multicast run single-process and at ``shards`` in
  {1, 4, 8}, recording aggregate events/s, speedup, barrier counts, and —
  the machine-independent property — whether ``shards=1`` reproduced the
  single-process metrics byte-identically and ``shards=K`` matched across
  K.  Speedup needs >= K idle cores; the determinism booleans do not.

Every entry also records **host provenance** (CPU model, core count,
1-minute load average, Python version), so an entry whose absolute rates
sank from a noisy or smaller runner is auditable instead of mysterious.
Any unhandled exception out of a benchmark (including a forked shard
worker's, which re-raises here) aborts with a non-zero exit status — a
crashed run can never record or green-wash an entry.

A deterministic *fingerprint* workload (fixed seed, fixed traffic schedule)
is also run; its delivery/latency metrics must be byte-identical across
refactors of the core, which is how perf PRs prove they did not change
simulation semantics.  The scenario entry records its own fixed-seed
metrics (lookup success per seed) for the same purpose.

Usage::

    PYTHONPATH=src python scripts/run_benchmarks.py --label "my change"

Each invocation appends one timestamped entry to ``BENCH_core.json`` (see
docs/PERFORMANCE.md for the schema).  Pass ``--output -`` to print the entry
without touching the file, ``--quick`` for a fast smoke run that still
appends, ``--smoke`` for the CI form (quick sizes, stdout only), and
``--check`` to compare kernel events/s, emulator packets/s, scenario_churn
events/s, and the scale benches' events/s against the last recorded entry
and exit non-zero on a >30% regression.
"""

from __future__ import annotations

import argparse
import configparser
import json
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.runner import ScenarioRunner  # noqa: E402
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel  # noqa: E402
from repro.network.emulator import NetworkEmulator  # noqa: E402
from repro.network.packet import Packet  # noqa: E402
from repro.network.topology import transit_stub_topology  # noqa: E402
from repro.protocols import chord_agent  # noqa: E402
from repro.runtime.engine import Simulator  # noqa: E402
from repro.runtime.failure import FailureDetectorConfig  # noqa: E402
from repro.runtime.sharded.mailbox import host_provenance  # noqa: E402

SCHEMA_VERSION = 1

#: --check fails when a measured rate drops more than this below the last
#: recorded entry (CI smoke boxes are noisy; 30% catches real regressions).
CHECK_REGRESSION_TOLERANCE = 0.30

#: Defaults, overridable by the ``[repro:bench]`` section of setup.cfg and
#: then by command-line flags.
BENCH_DEFAULTS = {
    "kernel_events": 200_000,
    "emulator_hosts": 600,
    "emulator_packets": 100_000,
    "neighbors_per_host": 8,
    "scenario_nodes": 20,
    "scenario_duration": 240,
    "scale_nodes": 200,
    "scale_duration": 180,
    "scale_scribe_nodes": 200,
    "shard_nodes": 1000,
    "shard_duration": 60,
    "shard_scribe_nodes": 150,
    "shard_scribe_duration": 90,
    "app_kv_nodes": 200,
    "app_kv_duration": 180,
    "app_pubsub_nodes": 100,
    "app_pubsub_duration": 150,
    "results_file": "BENCH_core.json",
}


def load_bench_config() -> dict:
    """Benchmark defaults merged with the [repro:bench] section of setup.cfg."""
    config = dict(BENCH_DEFAULTS)
    parser = configparser.ConfigParser()
    parser.read(REPO_ROOT / "setup.cfg")
    if parser.has_section("repro:bench"):
        section = parser["repro:bench"]
        for key in ("kernel_events", "emulator_hosts", "emulator_packets",
                    "neighbors_per_host", "scenario_nodes",
                    "scenario_duration", "scale_nodes", "scale_duration",
                    "scale_scribe_nodes", "shard_nodes", "shard_duration",
                    "shard_scribe_nodes", "shard_scribe_duration",
                    "app_kv_nodes", "app_kv_duration", "app_pubsub_nodes",
                    "app_pubsub_duration"):
            if key in section:
                config[key] = section.getint(key)
        if "results_file" in section:
            config["results_file"] = section["results_file"]
    return config


# --------------------------------------------------------------------- kernel
def bench_kernel(num_events: int = 200_000) -> dict:
    """Events/second through the discrete-event kernel.

    Schedules *num_events* no-op callbacks at pseudo-random offsets and drains
    the queue.  Measured twice: once through ``schedule()`` (handle per event)
    and once through ``schedule_fast()`` when the kernel provides it.
    """
    rng = random.Random(12345)
    delays = [rng.random() * 100.0 for _ in range(num_events)]

    def noop() -> None:
        pass

    def timed(schedule_one) -> float:
        simulator = Simulator(seed=1)
        sched = schedule_one(simulator)
        start = time.perf_counter()
        for delay in delays:
            sched(delay, noop)
        simulator.run()
        return time.perf_counter() - start

    handle_seconds = timed(lambda sim: sim.schedule)
    fast = getattr(Simulator, "schedule_fast", None)
    fast_seconds = timed(lambda sim: sim.schedule_fast) if fast else handle_seconds
    return {
        "events": num_events,
        "seconds": round(fast_seconds, 6),
        "events_per_sec": round(num_events / fast_seconds),
        "handle_seconds": round(handle_seconds, 6),
        "events_with_handles_per_sec": round(num_events / handle_seconds),
        "has_schedule_fast": fast is not None,
    }


# ------------------------------------------------------------------- emulator
def bench_emulator(num_hosts: int = 600, num_packets: int = 100_000,
                   neighbors_per_host: int = 8) -> dict:
    """Packets/second through a transit-stub emulator at ~ModelNet scale.

    Hosts are attached to a *num_hosts*-client transit-stub topology; each
    host is given *neighbors_per_host* fixed pseudo-random overlay neighbours
    and a *num_packets* traffic matrix cycles over those (src, neighbour)
    pairs — the steady-state regime of every figure reproduction, where the
    same overlay edges carry packet after packet.  The measured phase covers
    ``send()`` (routing, the per-link queue walk) plus event dispatch and
    delivery.
    """
    simulator = Simulator(seed=2)
    topology = transit_stub_topology(num_hosts, seed=2)
    emulator = NetworkEmulator(simulator, topology)

    attach_start = time.perf_counter()
    addresses = [emulator.attach_host().address for _ in range(num_hosts)]
    attach_seconds = time.perf_counter() - attach_start

    rng = random.Random(99)
    neighbors = []
    for src in range(num_hosts):
        chosen = rng.sample([h for h in range(num_hosts) if h != src],
                            neighbors_per_host)
        neighbors.append(chosen)
    pairs = []
    for index in range(num_packets):
        src = index % num_hosts
        dst = neighbors[src][(index // num_hosts) % neighbors_per_host]
        pairs.append((addresses[src], addresses[dst]))

    delivered = 0

    def on_receive(packet: Packet) -> None:
        nonlocal delivered
        delivered += 1

    for address in addresses:
        emulator.set_receive_callback(address, on_receive)

    # Spread injections over simulated time so link queues drain between
    # bursts; 20 packets share each injection instant.
    def inject(offset: int) -> None:
        send = emulator.send
        for src, dst in pairs[offset:offset + 20]:
            send(Packet(src, dst, None, 200))

    start = time.perf_counter()
    for offset in range(0, num_packets, 20):
        simulator.schedule((offset // 20) * 0.001, inject, offset)
    simulator.run()
    seconds = time.perf_counter() - start
    return {
        "hosts": num_hosts,
        "packets": num_packets,
        "neighbors": neighbors_per_host,
        "seconds": round(seconds, 6),
        "packets_per_sec": round(num_packets / seconds),
        "delivered": delivered,
        "dropped": emulator.stats.packets_dropped,
        "attach_seconds": round(attach_seconds, 6),
    }


# ------------------------------------------------------------ scenario churn
def bench_scenario_churn(num_nodes: int = 20, duration: float = 240.0,
                         seeds: tuple[int, ...] = (1, 2, 3)) -> dict:
    """Wall-clock and fidelity of the scenario engine's churn path.

    One declarative churn scenario (staggered join, 10% of the membership
    fail-stopping and rejoining, random-key route probes) executed across
    *seeds* by :class:`ScenarioRunner`, on the registry-compiled Chord
    specification.  ``seconds``/``events_per_sec`` track performance; the
    per-seed ``success_ratios`` are pure simulation results and must be
    byte-stable across refactors, like the core fingerprint.
    """
    spec = ScenarioSpec(
        name="bench-chord-churn",
        agents=lambda: [chord_agent()],
        num_nodes=num_nodes,
        duration=duration,
        failure_config=FailureDetectorConfig(failure_timeout=10.0,
                                             heartbeat_timeout=4.0,
                                             check_interval=1.0),
        models=(
            ChurnModel(join="staggered", join_spacing=0.5, churn_fraction=0.10,
                       churn_start=duration * 0.25, churn_end=duration * 0.85,
                       downtime=15.0),
            WorkloadModel(kind="route", source=-1, start=duration * 0.15,
                          packets=int(duration // 2), gap=1.5),
        ),
    )
    start = time.perf_counter()
    summary = ScenarioRunner(spec, seeds=list(seeds)).run()
    seconds = time.perf_counter() - start
    events = sum(result.metrics["sim.events_processed"]
                 for result in summary.results)
    success = summary.metric("workload.success_ratio")
    return {
        "nodes": num_nodes,
        "duration": duration,
        "seeds": list(seeds),
        "seconds": round(seconds, 6),
        "events_processed": int(events),
        "events_per_sec": round(events / seconds),
        "sim_seconds_per_wall_second": round(len(seeds) * duration / seconds, 1),
        "success_ratios": [repr(result.metrics["workload.success_ratio"])
                           for result in summary.results],
        "success_mean": round(success.mean, 4),
        "success_stddev": round(success.stddev, 4),
        "crashes": int(sum(result.metrics["nodes.crashes"]
                           for result in summary.results)),
    }


# -------------------------------------------------------------------- scale
def bench_scale(num_nodes: int = 200, duration: float = 180.0,
                scribe_nodes: int = 200, seed: int = 1) -> dict:
    """Registry-compiled protocols at hundreds of nodes (the ROADMAP's scale
    experiment): wall-clock and events/s, with per-seed-stable fidelity
    metrics.

    Two workloads:

    * **chord** — *num_nodes* registry-compiled Chord nodes joining under a
      staggered schedule with a random-key route-probe workload over the last
      quarter of *duration*.  The recorded ``success_ratio`` (1.0 at 200
      nodes; tests/integration/test_scale_fidelity.py holds it) must be
      byte-stable per seed like every other fidelity metric.
    * **scribe** — *scribe_nodes* Scribe-over-Pastry nodes building one group
      and multicasting a short burst.  Pastry's announce/gossip full-
      membership anti-entropy makes this the expensive half (O(members) work
      per gossip message); its events/s quantifies that known open item.
    """
    from repro.eval.experiment import ExperimentConfig, OverlayExperiment
    from repro.eval.scenario import WorkloadModel
    from repro.protocols import scribe_stack

    failure_config = FailureDetectorConfig(failure_timeout=10.0,
                                           heartbeat_timeout=4.0,
                                           check_interval=1.0)

    # --- Chord route probes at scale -----------------------------------
    join_spacing = (duration * 0.3) / num_nodes
    probe_gap = 0.25
    probes = int(duration * 0.2 / probe_gap)
    spec = ScenarioSpec(
        name="bench-scale-chord",
        agents=lambda: [chord_agent()],
        num_nodes=num_nodes,
        duration=duration,
        failure_config=failure_config,
        models=(
            ChurnModel(join="staggered", join_spacing=join_spacing,
                       churn_fraction=0.0),
            WorkloadModel(kind="route", source=-1, start=duration * 0.75,
                          packets=probes, gap=probe_gap),
        ),
    )
    start = time.perf_counter()
    result = spec.with_seed(seed).run()
    chord_seconds = time.perf_counter() - start
    chord_events = result.metrics["sim.events_processed"]
    chord = {
        "nodes": num_nodes,
        "duration": duration,
        "seed": seed,
        "seconds": round(chord_seconds, 6),
        "events_processed": int(chord_events),
        "events_per_sec": round(chord_events / chord_seconds),
        "probes": probes,
        "success_ratio": repr(result.metrics["workload.success_ratio"]),
    }

    # --- Scribe-over-Pastry multicast at scale -------------------------
    # Phase lengths scale with the population; the join wave is the
    # dominant cost (gossip anti-entropy), so it is kept tight.
    spacing = 0.1 if scribe_nodes >= 150 else 0.05
    group = 4040
    packets, gap = 5, 0.5
    start = time.perf_counter()
    experiment = OverlayExperiment(scribe_stack(), ExperimentConfig(
        num_nodes=scribe_nodes, seed=seed,
        convergence_time=scribe_nodes * spacing + 120.0,
        failure_config=failure_config))
    experiment.init_all(staggered=spacing)
    experiment.run(scribe_nodes * spacing + 10.0)   # join wave + settle
    source = experiment.nodes[1]
    source.macedon_create_group(group)
    experiment.run(5.0)
    for node in experiment.nodes:
        if node is not source:
            node.macedon_join(group)
    experiment.run(20.0)
    compiled = experiment.apply_model(
        WorkloadModel(kind="multicast", source=1, group=group,
                      packets=packets, gap=gap))
    experiment.run(packets * gap + 15.0)
    compiled.restore()
    metrics = compiled.metrics()
    scribe_seconds = time.perf_counter() - start
    scribe_events = experiment.simulator.events_processed
    scribe = {
        "nodes": scribe_nodes,
        "sim_seconds": round(experiment.simulator.now, 6),
        "seed": seed,
        "seconds": round(scribe_seconds, 6),
        "events_processed": int(scribe_events),
        "events_per_sec": round(scribe_events / scribe_seconds),
        "packets": packets,
        "deliveries": int(metrics["deliveries"]),
        "success_ratio": repr(metrics["success_ratio"]),
    }
    return {"chord": chord, "scribe": scribe}


# -------------------------------------------------------------------- shard
def bench_shard(num_nodes: int = 1000, duration: float = 60.0,
                scribe_nodes: int = 150, scribe_duration: float = 90.0,
                shard_counts: tuple[int, ...] = (1, 4, 8),
                seed: int = 1) -> dict:
    """The multi-process sharded kernel at scale (docs/PERFORMANCE.md,
    "Sharded execution").

    Two workloads — *num_nodes* registry-compiled Chord under route probes,
    and a *scribe_nodes* Scribe-over-Pastry group multicast — each run once
    single-process and once per shard count in *shard_counts* via
    :meth:`ScenarioSpec.run_sharded`.  Per run: wall-clock, aggregate
    events/s across the shard workers, and the speedup of that aggregate
    rate over the single-process run.

    Speedup is machine-dependent: it needs at least as many idle cores as
    shards (a 1-core host serialises the workers and the barrier protocol is
    pure overhead — see the recorded host provenance).  The *determinism*
    booleans are not: every run records whether it reproduced the
    single-process metrics byte-identically
    (``identical_to_single_process`` — there is one link physics, so K never
    matters), ``shard1_identical`` is that boolean of the ``shards=1`` run,
    and ``--check`` gates on it regardless of machine.
    """
    from repro.eval.scenario import GroupModel
    from repro.protocols import scribe_stack

    failure_config = FailureDetectorConfig(failure_timeout=10.0,
                                           heartbeat_timeout=4.0,
                                           check_interval=1.0)

    # Same shape as the scale bench's Chord workload: staggered joins over
    # the first 30% of the run, route probes over the last quarter.
    probe_gap = 0.25
    chord_spec = ScenarioSpec(
        name="bench-shard-chord",
        agents=lambda: [chord_agent()],
        num_nodes=num_nodes,
        duration=duration,
        failure_config=failure_config,
        models=(
            ChurnModel(join="staggered",
                       join_spacing=(duration * 0.3) / num_nodes,
                       churn_fraction=0.0),
            WorkloadModel(kind="route", source=-1, start=duration * 0.75,
                          packets=int(duration * 0.2 / probe_gap),
                          gap=probe_gap),
        ))

    # Scribe-over-Pastry: join wave, then every node joins one group, then a
    # short multicast burst near the end.  Phase fractions keep the schedule
    # valid at smoke sizes too.
    group = 7
    scribe_spec = ScenarioSpec(
        name="bench-shard-scribe",
        agents=lambda: scribe_stack("pastry"),
        num_nodes=scribe_nodes,
        duration=scribe_duration,
        failure_config=failure_config,
        models=(
            ChurnModel(join="staggered",
                       join_spacing=min(0.15,
                                        scribe_duration * 0.25 / scribe_nodes),
                       churn_fraction=0.0),
            GroupModel(group=group, source=0, at=scribe_duration * 0.39,
                       spacing=min(0.25,
                                   scribe_duration * 0.42 / scribe_nodes)),
            WorkloadModel(kind="multicast", source=0, group=group,
                          start=scribe_duration * 0.87,
                          packets=max(4, int(scribe_duration * 0.09)),
                          gap=1.0),
        ))

    def fingerprint(result) -> dict:
        return {key: repr(value)
                for key, value in sorted(result.metrics.items())}

    def measure(spec: ScenarioSpec) -> dict:
        seeded = spec.with_seed(seed)
        start = time.perf_counter()
        single = seeded.run()
        single_seconds = time.perf_counter() - start
        single_events = single.metrics["sim.events_processed"]
        single_rate = single_events / single_seconds
        single_fp = fingerprint(single)

        runs = []
        shard1_identical = None
        for count in shard_counts:
            start = time.perf_counter()
            sharded = seeded.run_sharded(count)
            seconds = time.perf_counter() - start
            events = sharded.metrics["sim.events_processed"]
            fp = fingerprint(sharded)
            info = sharded.shard_info
            lookahead = info["lookahead"]
            run = {
                "shards": count,
                "effective_shards": info["num_shards"],
                # A one-shard plan has no cross-shard pair, so its window is
                # unbounded; record null rather than emit non-JSON Infinity.
                "lookahead": lookahead if lookahead != float("inf") else None,
                "barriers": info["barriers"],
                "cross_shard_packets": info["cross_shard_packets"],
                "seconds": round(seconds, 6),
                "events_processed": int(events),
                "events_per_sec": round(events / seconds),
                "speedup_vs_single": round((events / seconds) / single_rate,
                                           3),
            }
            run["identical_to_single_process"] = fp == single_fp
            if info["num_shards"] == 1:
                shard1_identical = fp == single_fp
            runs.append(run)
        return {
            "nodes": spec.num_nodes,
            "duration": spec.duration,
            "seed": seed,
            "single": {
                "seconds": round(single_seconds, 6),
                "events_processed": int(single_events),
                "events_per_sec": round(single_rate),
            },
            "runs": runs,
            "shard1_identical": bool(shard1_identical),
        }

    return {
        "shard_counts": list(shard_counts),
        "chord": measure(chord_spec),
        "scribe": measure(scribe_spec),
    }


# ---------------------------------------------------------------------- app
def bench_app(kv_nodes: int = 200, kv_duration: float = 180.0,
              pubsub_nodes: int = 100, pubsub_duration: float = 150.0,
              seed: int = 1) -> dict:
    """The application layer over the overlays (``repro.apps``).

    Two workloads, both executed via the ``repro.run`` facade so the bench
    also exercises the unified front door:

    * **kv** — a Zipf-skewed replicated key/value workload (3-way
      replication, W=2/Q=2 quorums, 70% reads) over *kv_nodes*
      registry-compiled Chord nodes.  ``quorum_success``/``phantom_reads``/
      ``replica_coverage`` are fixed-seed fidelity metrics and must stay
      byte-stable across refactors, like the core fingerprint (at 200
      nodes every quorum op succeeds);
    * **pubsub** — topic pub/sub over Scribe-over-Pastry: 4 topics, every
      node subscribed, a publication burst from the group owner.
      ``coverage`` is the per-seed-stable fidelity metric.
    """
    import repro
    from repro.eval.library import resolve_protocol

    failure_config = FailureDetectorConfig(failure_timeout=10.0,
                                           heartbeat_timeout=4.0,
                                           check_interval=1.0)

    # --- Zipf KV over Chord --------------------------------------------
    ops_gap = 0.5
    ops = int(kv_duration * 0.2 / ops_gap)
    kv_spec = ScenarioSpec(
        name="bench-app-kv",
        agents=resolve_protocol("chord"),
        num_nodes=kv_nodes,
        duration=kv_duration,
        failure_config=failure_config,
        models=(
            ChurnModel(join="staggered",
                       join_spacing=(kv_duration * 0.3) / kv_nodes,
                       churn_fraction=0.0),
            WorkloadModel(kind="kv", start=kv_duration * 0.6, packets=ops,
                          gap=ops_gap, keys=64, zipf_s=1.1,
                          read_fraction=0.7, replicas=3, write_quorum=2,
                          read_quorum=2),
        ))
    start = time.perf_counter()
    result = repro.run(kv_spec.with_seed(seed))
    kv_seconds = time.perf_counter() - start
    kv_events = result.metrics["sim.events_processed"]
    kv = {
        "nodes": kv_nodes,
        "duration": kv_duration,
        "seed": seed,
        "seconds": round(kv_seconds, 6),
        "events_processed": int(kv_events),
        "events_per_sec": round(kv_events / kv_seconds),
        "ops": ops,
        "ops_per_sec_wall": round(ops / kv_seconds, 1),
        "quorum_success": repr(result.metrics["workload.quorum_success"]),
        "phantom_reads": repr(result.metrics["workload.phantom_reads"]),
        "replica_coverage": repr(result.metrics["workload.replica_coverage"]),
        "latency_mean": repr(result.metrics["workload.latency_mean"]),
    }

    # --- topic pub/sub over Scribe -------------------------------------
    publish_start = pubsub_duration * 0.5
    publishes = max(4, int(pubsub_duration * 0.05))
    pubsub_spec = ScenarioSpec(
        name="bench-app-pubsub",
        agents=resolve_protocol("scribe-pastry"),
        num_nodes=pubsub_nodes,
        duration=pubsub_duration,
        failure_config=failure_config,
        models=(
            ChurnModel(join="staggered",
                       join_spacing=min(
                           0.15, (pubsub_duration * 0.25) / pubsub_nodes),
                       churn_fraction=0.0),
            WorkloadModel(kind="pubsub", source=0, start=publish_start,
                          packets=publishes, gap=1.0, topics=4, fanout=0),
        ))
    start = time.perf_counter()
    result = repro.run(pubsub_spec.with_seed(seed))
    pubsub_seconds = time.perf_counter() - start
    pubsub_events = result.metrics["sim.events_processed"]
    pubsub = {
        "nodes": pubsub_nodes,
        "duration": pubsub_duration,
        "seed": seed,
        "seconds": round(pubsub_seconds, 6),
        "events_processed": int(pubsub_events),
        "events_per_sec": round(pubsub_events / pubsub_seconds),
        "publishes": publishes,
        "deliveries": int(result.metrics["workload.deliveries"]),
        "coverage": repr(result.metrics["workload.coverage"]),
        "duplicates": int(result.metrics["workload.duplicates"]),
    }
    return {"kv": kv, "pubsub": pubsub}


# -------------------------------------------------------------- adversarial
def bench_adversarial(seeds: tuple[int, ...] = (1, 2)) -> dict:
    """Wall-clock, events/s, and fidelity of two curated adversarial
    scenarios from the library.

    * **flash_crowd** — registry-compiled Chord absorbing a Poisson burst of
      joins against a small warm core, with route probes running through the
      arrival wave;
    * **scribe_flapping** — Scribe-over-Pastry multicast while the stub
      uplinks flap as one-directional cuts.

    Both run under :func:`repro.eval.invariants.check_invariants`;
    ``invariant_violations`` must stay 0, and ``success_ratios`` are
    per-seed-stable fidelity metrics like the core fingerprint.
    """
    from repro.eval.invariants import check_invariants
    from repro.eval.library import library_spec

    benches = {}
    for key, name in (("flash_crowd", "flash-crowd"),
                      ("scribe_flapping", "scribe-flapping")):
        start = time.perf_counter()
        results = [library_spec(name, seed=seed).run() for seed in seeds]
        seconds = time.perf_counter() - start
        events = sum(result.metrics["sim.events_processed"]
                     for result in results)
        violations = sum(len(check_invariants(result)) for result in results)
        benches[key] = {
            "scenario": name,
            "seeds": list(seeds),
            "seconds": round(seconds, 6),
            "events_processed": int(events),
            "events_per_sec": round(events / seconds),
            "invariant_violations": violations,
            "success_ratios": [repr(result.metrics["workload.success_ratio"])
                               for result in results],
        }
    return benches


# ------------------------------------------------------------------------ obs
def bench_obs(seeds: tuple[int, ...] = (1, 2)) -> dict:
    """Observability overhead: one fixed spec, obs off vs fully on.

    The obs-off rate is the gated number (fixed-size, comparable on every
    invocation, like the adversarial benches): with no
    :class:`~repro.obs.ObsConfig` attached the run must execute the
    historical code paths, so a slowdown here is a real hot-path
    regression.  The obs-on pass (trace export + causal tracing + metrics
    snapshot) reports the ``overhead_ratio`` informationally and asserts
    the tentpole's invariance contract: metrics stay byte-identical with
    observability attached.
    """
    import os
    import shutil
    import tempfile
    from dataclasses import replace

    from repro.eval.library import resolve_protocol
    from repro.obs import ObsConfig

    def build(seed: int) -> ScenarioSpec:
        return ScenarioSpec(
            name="bench-obs", agents=resolve_protocol("chord"),
            num_nodes=12, duration=60.0, seed=seed,
            models=(ChurnModel(join="staggered", join_spacing=0.4),
                    WorkloadModel(kind="route", source=-1, start=10.0,
                                  packets=40, gap=1.0)))

    start = time.perf_counter()
    off_results = [build(seed).run() for seed in seeds]
    off_seconds = time.perf_counter() - start
    events = sum(result.metrics["sim.events_processed"]
                 for result in off_results)

    tmp = tempfile.mkdtemp(prefix="bench-obs-")
    try:
        start = time.perf_counter()
        on_results = []
        for seed in seeds:
            obs = ObsConfig(trace_path=os.path.join(tmp, f"t{seed}.jsonl"),
                            causal=True)
            on_results.append(replace(build(seed), obs=obs).run())
        on_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "seeds": list(seeds),
        "seconds": round(off_seconds, 6),
        "events_processed": int(events),
        "events_per_sec": round(events / off_seconds),
        "on_seconds": round(on_seconds, 6),
        "on_events_per_sec": round(events / on_seconds),
        "overhead_ratio": round(on_seconds / off_seconds, 4),
        "metrics_identical": all(
            on.metrics == off.metrics
            for on, off in zip(on_results, off_results)),
    }


# ---------------------------------------------------------------- fingerprint
def metrics_fingerprint(seed: int = 7, num_hosts: int = 64,
                        num_packets: int = 2_000) -> dict:
    """Deterministic delivery/latency metrics for a fixed-seed experiment.

    Every field must be identical run-to-run and across refactors of the
    engine/emulator hot path; floats are recorded via ``repr`` so the
    comparison is byte-exact.
    """
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


# --------------------------------------------------------------------- check
def _nested_get(document, *path):
    """Walk nested dicts; None as soon as a key is missing.

    The reference entry may predate a benchmark (first run after a new bench
    name lands) and the entry may drop one; a missing name must be reported
    and skipped, never KeyError the whole check.
    """
    for key in path:
        if not isinstance(document, dict):
            return None
        document = document.get(key)
        if document is None:
            return None
    return document


def check_against(entry: dict, reference: dict | None, position: int) -> int:
    """Compare *entry*'s throughput against the *reference* entry.

    Kernel events/s, emulator packets/s, scenario_churn events/s, and the
    scale benches' events/s may not regress more than
    ``CHECK_REGRESSION_TOLERANCE`` below the last ``BENCH_core.json`` entry.
    Benchmark names the reference (or the entry) does not record — a newly
    added bench on its first gated run — are reported and skipped.  Returns
    0 when within tolerance (or when there is no history to compare
    against), 1 on regression.
    """
    if reference is None:
        print("\n--check: no recorded BENCH_core.json entry to compare "
              "against; skipping")
        return 0
    checks = []
    skipped = []
    for name, path in (
        ("kernel events/s", ("kernel", "events_per_sec")),
        ("emulator packets/s", ("emulator", "packets_per_sec")),
        ("scenario_churn events/s", ("scenario_churn", "events_per_sec")),
        # The adversarial library scenarios are fixed-size, so their rates
        # are comparable on every invocation, smoke included.
        ("adversarial flash_crowd events/s",
         ("adversarial", "flash_crowd", "events_per_sec")),
        ("adversarial scribe_flapping events/s",
         ("adversarial", "scribe_flapping", "events_per_sec")),
        # Fixed-size too: the obs-off rate of the observability bench —
        # instrumentation hooks may not slow down an uninstrumented run.
        ("obs-off events/s", ("obs", "events_per_sec")),
    ):
        measured = _nested_get(entry, *path)
        recorded = _nested_get(reference, *path)
        if measured is None or recorded is None:
            skipped.append((name, "not recorded in both entries"))
            continue
        checks.append((name, measured, recorded))
    # Scale rates are only comparable at identical workload shapes; a smoke
    # run keeps its small scale budget, so its scale rates are not gated
    # (the full-size gate runs on full benchmark invocations).
    for proto, size_keys in (("chord", ("nodes", "duration")),
                             ("scribe", ("nodes",))):
        entry_bench = _nested_get(entry, "scale", proto)
        reference_bench = _nested_get(reference, "scale", proto)
        if entry_bench is None or reference_bench is None:
            skipped.append((f"scale {proto}", "not recorded in both entries"))
            continue
        if all(entry_bench.get(key) == reference_bench.get(key)
               for key in size_keys):
            checks.append(
                (f"scale {proto} events/s",
                 entry_bench["events_per_sec"],
                 reference_bench["events_per_sec"]))
        else:
            skipped.append((f"scale {proto}",
                            "run at different sizes than the reference "
                            "(smoke budget); rate not compared"))
    # App-layer rates compare like scale rates: only at identical sizes.
    for bench in ("kv", "pubsub"):
        entry_bench = _nested_get(entry, "app", bench)
        reference_bench = _nested_get(reference, "app", bench)
        if entry_bench is None or reference_bench is None:
            skipped.append((f"app {bench}", "not recorded in both entries"))
            continue
        if all(entry_bench.get(key) == reference_bench.get(key)
               for key in ("nodes", "duration")):
            checks.append((f"app {bench} events/s",
                           entry_bench["events_per_sec"],
                           reference_bench["events_per_sec"]))
        else:
            skipped.append((f"app {bench}",
                            "run at different sizes than the reference "
                            "(smoke budget); rate not compared"))
    # Shard rates compare like scale rates: only at identical workload
    # shapes and shard counts (smoke runs use a small shard budget).
    for proto in ("chord", "scribe"):
        entry_bench = _nested_get(entry, "shard", proto)
        reference_bench = _nested_get(reference, "shard", proto)
        if entry_bench is None or reference_bench is None:
            skipped.append((f"shard {proto}", "not recorded in both entries"))
            continue
        if any(entry_bench.get(key) != reference_bench.get(key)
               for key in ("nodes", "duration")):
            skipped.append((f"shard {proto}",
                            "run at different sizes than the reference "
                            "(smoke budget); rate not compared"))
            continue
        reference_runs = {run.get("shards"): run
                          for run in reference_bench.get("runs", [])}
        for run in entry_bench.get("runs", []):
            recorded_run = reference_runs.get(run.get("shards"))
            if recorded_run is None:
                continue
            checks.append((f"shard {proto} x{run['shards']} events/s",
                           run["events_per_sec"],
                           recorded_run["events_per_sec"]))

    floor = 1.0 - CHECK_REGRESSION_TOLERANCE
    failed = False
    print(f"\n--check vs entry #{position} "
          f"({reference.get('label') or 'unlabelled'}, "
          f"{reference.get('git_rev', '?')}):")
    for name, reason in skipped:
        print(f"  {name}: {reason}")
    # Machine-independent determinism gate: a sharded run with shards=1 must
    # have reproduced the single-process metrics byte-identically.  Unlike
    # the rates this compares the *entry against itself*, so it holds on any
    # runner, smoke included.
    for proto in ("chord", "scribe"):
        identical = _nested_get(entry, "shard", proto, "shard1_identical")
        if identical is None:
            continue
        verdict = "OK" if identical else "FINGERPRINT MISMATCH"
        print(f"  shard {proto} shards=1 == single-process: {verdict}")
        if not identical:
            failed = True
    for name, measured, recorded in checks:
        ratio = measured / recorded if recorded else float("inf")
        verdict = "OK" if ratio >= floor else "REGRESSION"
        print(f"  {name}: {measured} vs {recorded} recorded "
              f"({ratio:.2f}x) {verdict}")
        if ratio < floor:
            failed = True
    if failed:
        print(f"--check FAILED: throughput fell more than "
              f"{int(CHECK_REGRESSION_TOLERANCE * 100)}% below the last "
              f"recorded entry")
        return 1
    return 0


# -------------------------------------------------------------------- output
def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def load_results(path: Path) -> dict:
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("schema_version") != SCHEMA_VERSION:
            raise SystemExit(f"{path} has unsupported schema_version "
                             f"{document.get('schema_version')!r}")
        return document
    return {
        "schema_version": SCHEMA_VERSION,
        "description": ("Simulation-core microbenchmark history; one entry "
                        "appended per scripts/run_benchmarks.py invocation. "
                        "See docs/PERFORMANCE.md for the schema."),
        "entries": [],
    }


def main(argv: list[str] | None = None) -> int:
    config = load_bench_config()
    # allow_abbrev=False: a typo'd --event must not silently run (and pollute
    # the recorded history) as --events.
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--label", default="", help="free-form entry label")
    parser.add_argument("--output",
                        default=str(REPO_ROOT / config["results_file"]),
                        help="results file to append to, or '-' for stdout only")
    parser.add_argument("--events", type=int, default=config["kernel_events"],
                        help="kernel microbench event count")
    parser.add_argument("--hosts", type=int, default=config["emulator_hosts"],
                        help="emulator microbench host count")
    parser.add_argument("--packets", type=int,
                        default=config["emulator_packets"],
                        help="emulator microbench packet count")
    parser.add_argument("--neighbors", type=int,
                        default=config["neighbors_per_host"],
                        help="overlay neighbours per host in the emulator bench")
    parser.add_argument("--scenario-nodes", type=int,
                        default=config["scenario_nodes"],
                        help="overlay size of the churn scenario bench")
    parser.add_argument("--scenario-duration", type=float,
                        default=config["scenario_duration"],
                        help="simulated seconds of the churn scenario bench")
    parser.add_argument("--scale-nodes", type=int,
                        default=config["scale_nodes"],
                        help="Chord overlay size of the scale bench")
    parser.add_argument("--scale-duration", type=float,
                        default=config["scale_duration"],
                        help="simulated seconds of the Chord scale bench")
    parser.add_argument("--scale-scribe-nodes", type=int,
                        default=config["scale_scribe_nodes"],
                        help="Scribe-over-Pastry overlay size of the scale bench")
    parser.add_argument("--shard-nodes", type=int,
                        default=config["shard_nodes"],
                        help="Chord overlay size of the sharded-kernel bench")
    parser.add_argument("--shard-duration", type=float,
                        default=config["shard_duration"],
                        help="simulated seconds of the sharded Chord bench")
    parser.add_argument("--shard-scribe-nodes", type=int,
                        default=config["shard_scribe_nodes"],
                        help="Scribe overlay size of the sharded-kernel bench")
    parser.add_argument("--shard-scribe-duration", type=float,
                        default=config["shard_scribe_duration"],
                        help="simulated seconds of the sharded Scribe bench")
    parser.add_argument("--app-kv-nodes", type=int,
                        default=config["app_kv_nodes"],
                        help="Chord overlay size of the app KV bench")
    parser.add_argument("--app-kv-duration", type=float,
                        default=config["app_kv_duration"],
                        help="simulated seconds of the app KV bench")
    parser.add_argument("--app-pubsub-nodes", type=int,
                        default=config["app_pubsub_nodes"],
                        help="Scribe overlay size of the app pub/sub bench")
    parser.add_argument("--app-pubsub-duration", type=float,
                        default=config["app_pubsub_duration"],
                        help="simulated seconds of the app pub/sub bench")
    parser.add_argument("--shard-counts", type=str, default="1,4,8",
                        help="comma-separated shard counts to bench "
                             "(default 1,4,8)")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for a smoke run")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke pass: --quick sizes, stdout only "
                             "(BENCH_core.json is not touched)")
    parser.add_argument("--check", action="store_true",
                        help="compare kernel events/s, emulator packets/s, "
                             "scenario_churn events/s, and scale events/s "
                             "against the last recorded BENCH_core.json entry "
                             "and exit 1 on a >%d%% regression"
                             % int(CHECK_REGRESSION_TOLERANCE * 100))
    args = parser.parse_args(argv)

    if args.smoke:
        args.quick = True
        args.output = "-"
    if args.quick:
        args.events, args.hosts, args.packets = 20_000, 100, 3_000
        args.scenario_nodes = 10
        args.scenario_duration = 120.0
        # Scale smoke: still 200 Chord nodes (the point is exercising the
        # hundreds-of-nodes path on every PR) but a small event budget, and
        # a halved Scribe population to cap the gossip-heavy wall-clock.
        args.scale_nodes = 200
        args.scale_duration = 30.0
        args.scale_scribe_nodes = 100
        # Shard smoke: small populations, shards {1, 4} — enough to exercise
        # the fork/barrier machinery and the shards=1 identity gate without
        # the full-size wall-clock.
        args.shard_nodes = 120
        args.shard_duration = 20.0
        args.shard_scribe_nodes = 60
        args.shard_scribe_duration = 60.0
        args.shard_counts = "1,4"
        # App smoke: small overlays, full choreography (joins, replication
        # or tree building, then the measured workload burst).
        args.app_kv_nodes = 60
        args.app_kv_duration = 60.0
        args.app_pubsub_nodes = 40
        args.app_pubsub_duration = 90.0

    # Validate the results file before spending ~a minute benchmarking.
    document = load_results(Path(args.output)) if args.output != "-" else None

    reference = None
    if args.check:
        history = load_results(REPO_ROOT / config["results_file"]) \
            if (REPO_ROOT / config["results_file"]).exists() else {"entries": []}
        reference = history["entries"][-1] if history["entries"] else None
        if reference is not None:
            # Rates are only comparable at identical workload shapes, so the
            # checked benches re-run at the reference entry's dimensions
            # (kernel/emulator are ~a second each; the scenario and scale
            # benches dominate but stay within a CI-friendly minute).
            # Older entries did not record every size; keep defaults then.
            # Sizes missing from the reference (an entry recorded before a
            # bench name existed) drop out: the bench then runs at its
            # defaults and check_against skips its rate comparison.
            checked_sizes = {
                "events": _nested_get(reference, "kernel", "events"),
                "hosts": _nested_get(reference, "emulator", "hosts"),
                "packets": _nested_get(reference, "emulator", "packets"),
                "neighbors": _nested_get(reference, "emulator", "neighbors"),
                "scenario_nodes":
                    _nested_get(reference, "scenario_churn", "nodes"),
                "scenario_duration":
                    _nested_get(reference, "scenario_churn", "duration"),
            }
            # The scale benches are only re-run at reference sizes on full
            # invocations: a smoke run keeps its small scale budget (the CI
            # job's wall-clock cap) and check_against skips their rate
            # comparison instead.
            if not args.smoke:
                checked_sizes.update({
                    "scale_nodes":
                        _nested_get(reference, "scale", "chord", "nodes"),
                    "scale_duration":
                        _nested_get(reference, "scale", "chord", "duration"),
                    "scale_scribe_nodes":
                        _nested_get(reference, "scale", "scribe", "nodes"),
                    "shard_nodes":
                        _nested_get(reference, "shard", "chord", "nodes"),
                    "shard_duration":
                        _nested_get(reference, "shard", "chord", "duration"),
                    "shard_scribe_nodes":
                        _nested_get(reference, "shard", "scribe", "nodes"),
                    "shard_scribe_duration":
                        _nested_get(reference, "shard", "scribe", "duration"),
                    "app_kv_nodes":
                        _nested_get(reference, "app", "kv", "nodes"),
                    "app_kv_duration":
                        _nested_get(reference, "app", "kv", "duration"),
                    "app_pubsub_nodes":
                        _nested_get(reference, "app", "pubsub", "nodes"),
                    "app_pubsub_duration":
                        _nested_get(reference, "app", "pubsub", "duration"),
                })
            checked_sizes = {name: size
                             for name, size in checked_sizes.items()
                             if size is not None}
            overridden = {name: (getattr(args, name), size)
                          for name, size in checked_sizes.items()
                          if getattr(args, name) != size}
            if overridden:
                print("--check: re-running kernel/emulator benches at the "
                      "reference entry's sizes for a valid comparison:")
                for name, (given, used) in sorted(overridden.items()):
                    print(f"  {name}: {given} -> {used}")
            for name, size in checked_sizes.items():
                setattr(args, name, size)

    try:
        shard_counts = tuple(int(part) for part
                             in args.shard_counts.split(",") if part.strip())
    except ValueError:
        parser.error(f"--shard-counts must be comma-separated integers, "
                     f"got {args.shard_counts!r}")
    if not shard_counts or any(count < 1 for count in shard_counts):
        parser.error("--shard-counts needs at least one count >= 1")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "label": args.label,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "host": host_provenance(),
        "kernel": bench_kernel(args.events),
        "emulator": bench_emulator(args.hosts, args.packets, args.neighbors),
        "scenario_churn": bench_scenario_churn(args.scenario_nodes,
                                               args.scenario_duration),
        "scale": bench_scale(args.scale_nodes, args.scale_duration,
                             args.scale_scribe_nodes),
        "shard": bench_shard(args.shard_nodes, args.shard_duration,
                             args.shard_scribe_nodes,
                             args.shard_scribe_duration,
                             shard_counts),
        "app": bench_app(args.app_kv_nodes, args.app_kv_duration,
                         args.app_pubsub_nodes, args.app_pubsub_duration),
        "adversarial": bench_adversarial(),
        "obs": bench_obs(),
        "fingerprint": metrics_fingerprint(),
    }

    print(json.dumps(entry, indent=2))
    check_status = 0
    if args.check:
        check_status = check_against(entry, reference,
                                     len(history["entries"]))
        if check_status != 0 and document is not None:
            # A regressed entry must not become the next run's reference —
            # recording it would ratchet the floor down 30% at a time.
            print(f"not appending the regressed entry to {args.output}")
            document = None
    if document is not None:
        path = Path(args.output)
        previous = document["entries"][0] if document["entries"] else None
        document["entries"].append(entry)
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"\nappended entry #{len(document['entries'])} to {path}")
        if previous is not None:
            kernel_speedup = (entry["kernel"]["events_per_sec"]
                              / previous["kernel"]["events_per_sec"])
            emulator_speedup = (entry["emulator"]["packets_per_sec"]
                                / previous["emulator"]["packets_per_sec"])
            same = entry["fingerprint"] == previous["fingerprint"]
            print(f"vs entry #1 ({previous['label'] or 'baseline'}): "
                  f"kernel {kernel_speedup:.2f}x, emulator {emulator_speedup:.2f}x, "
                  f"fingerprint {'IDENTICAL' if same else 'CHANGED'}")
    return check_status


if __name__ == "__main__":
    raise SystemExit(main())
