"""Observability over real sockets, and the sim/live parity contract.

The acceptance shape from the observability issue: a sim run and a live
run both emit ``repro.obs/1`` snapshots with *identical metric keys*, and
``scripts/run_trace.py``-style route reconstruction works on both modes'
trace files.  The cluster stays small (4 nodes, a few seconds) like the
rest of the live tier.
"""

from __future__ import annotations

import pytest

from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel
from repro.live import LiveCluster, LiveClusterConfig
from repro.obs import (ObsConfig, load_obs_snapshot, load_trace,
                       reconstruct_routes, validate_obs_snapshot)

pytestmark = pytest.mark.live


def _spec(*models, nodes, duration, seed, obs=None):
    """A spec in wall seconds: joins 0.1 s apart, then *models*."""
    return ScenarioSpec(name="obs-live", agents=resolve_protocol("chord"),
                        num_nodes=nodes, duration=duration, seed=seed,
                        obs=obs,
                        models=(ChurnModel(join="staggered",
                                           join_spacing=0.1),) + models)


def test_live_obs_snapshot_matches_sim_keys_and_routes(tmp_path):
    obs_live = ObsConfig(trace_path=str(tmp_path / "live-trace.jsonl"),
                         causal=True,
                         snapshot_path=str(tmp_path / "live-obs.json"))
    config = LiveClusterConfig(
        _spec(WorkloadModel(kind="route", source=-1, start=1.4, packets=16,
                            gap=0.2),
              nodes=4, duration=5.0, seed=5, obs=obs_live),
        time_scale=1.0, base_port=49300)
    outcome = LiveCluster(config).run()
    live_snapshot = outcome.obs
    assert live_snapshot is not None
    validate_obs_snapshot(live_snapshot)
    assert live_snapshot["mode"] == "live"
    assert load_obs_snapshot(str(tmp_path / "live-obs.json")) == live_snapshot

    # The same workload shape in simulation, same obs knobs.
    sim_result = ScenarioSpec(
        name="obs-parity-sim", agents=resolve_protocol("chord"),
        num_nodes=4, duration=40.0, seed=5,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="route", source=-1, start=10.0,
                              packets=16, gap=1.0)),
        obs=ObsConfig(trace_path=str(tmp_path / "sim-trace.jsonl"),
                      causal=True)).run()
    sim_snapshot = sim_result.obs
    validate_obs_snapshot(sim_snapshot)

    # Key parity is the contract: one dashboard reads both modes.
    for section in ("counters", "gauges", "histograms"):
        assert set(live_snapshot[section]) == set(sim_snapshot[section])

    # Live-only signals actually populated.
    assert live_snapshot["counters"]["causal.traces"] > 0
    assert live_snapshot["gauges"]["nodes.alive"] == 4.0
    assert live_snapshot["wallclock"], "coordinator collected stats frames"
    for sample in live_snapshot["wallclock"]:
        assert len(sample["nodes"]) == 4

    # Hops are tracer records in both modes: the live count includes them.
    for snapshot in (live_snapshot, sim_snapshot):
        assert snapshot["counters"]["trace.records"] \
            >= snapshot["counters"]["causal.hops"] > 0

    # Route reconstruction works on both modes' trace files.
    for name, expected_mode in (("live-trace.jsonl", "live"),
                                ("sim-trace.jsonl", "sim")):
        header, records = load_trace(str(tmp_path / name))
        assert header["mode"] == expected_mode
        if expected_mode == "live":
            # Spec seconds from the cluster's zero, not epoch seconds.
            hops = [record for record in records
                    if record["cat"] == "route_hop"]
            assert hops
            for record in hops:
                assert 0.0 <= record["t"] <= config.spec.duration + 1.0
                assert 0.0 <= record["data"]["latency"] <= 1.0
        routes = reconstruct_routes(records)
        assert routes, f"no routes reconstructed from {name}"
        for route in routes:
            assert len(route["path"]) == route["hops"] + 1
            assert len(route["latencies"]) == route["hops"]


def test_live_obs_off_reports_no_trace_sections():
    config = LiveClusterConfig(
        _spec(WorkloadModel(kind="route", source=-1, start=1.3, packets=8,
                            gap=0.3),
              nodes=3, duration=4.0, seed=3),
        time_scale=1.0, base_port=49340)
    outcome = LiveCluster(config).run()
    assert outcome.obs is None
    for report in outcome.per_node:
        assert "causal" not in report
