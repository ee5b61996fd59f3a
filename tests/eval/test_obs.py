"""The observability layer: the snapshot fold, artifacts, causal tracing.

The byte-identity contract of the *disabled* path is pinned separately in
test_obs_pin.py; this module covers the enabled path — the histogram
rule, the canonical namespace, snapshot/trace artifact round-trips,
facade plumbing, and route reconstruction.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel
from repro.obs import (ObsConfig, fold_snapshot, load_obs_snapshot,
                       load_trace, reconstruct_routes, validate_obs_snapshot)
from repro.obs.probes import COUNTERS, GAUGES, HISTOGRAMS, histogram


def traced_spec(seed: int = 3, **obs_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="obs-test", agents=resolve_protocol("chord"),
        num_nodes=8, duration=40.0, seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="route", source=-1, start=10.0,
                              packets=12, gap=1.0)),
        obs=ObsConfig(**obs_kwargs))


# ---------------------------------------------------------------- snapshot
def test_histogram_buckets_overflow_and_empty():
    row = histogram((1.0, 10.0), [1.0, 0.5, 9.5, 50.0])
    # A value equal to a bound lands in the bucket that bound opens; one
    # above the last bound lands in the overflow bucket.
    assert row["counts"] == [1, 2, 1]
    assert row["bounds"] == [1.0, 10.0]
    assert (row["count"], row["sum"]) == (4, 61.0)
    assert (row["min"], row["max"]) == (0.5, 50.0)
    assert histogram((1.0, 10.0), [10.0])["counts"] == [0, 0, 1]
    assert histogram((1.0, 10.0), []) == {
        "bounds": [1.0, 10.0], "counts": [0, 0, 0], "count": 0,
        "sum": 0.0, "min": None, "max": None}


def test_a_snapshot_of_no_reports_carries_the_full_namespace():
    snapshot = fold_snapshot([], [], mode="sim", name="empty", seed=0,
                             duration=0.0, nodes_total=0, nodes_alive=0)
    validate_obs_snapshot(snapshot)
    assert snapshot["counters"] == dict.fromkeys(sorted(COUNTERS), 0)
    assert snapshot["gauges"] == dict.fromkeys(sorted(GAUGES), 0.0)
    assert list(snapshot["histograms"]) == sorted(HISTOGRAMS)
    for key, bounds in HISTOGRAMS.items():
        assert snapshot["histograms"][key]["bounds"] == list(bounds)
        assert snapshot["histograms"][key]["count"] == 0


def test_histogram_bounds_validation():
    # bisect_right buckets silently wrong on unsorted or repeated bounds,
    # so every fixed bound set must be non-empty and strictly ascending.
    for key, bounds in HISTOGRAMS.items():
        assert bounds, key
        assert all(low < high for low, high in zip(bounds, bounds[1:])), key


def test_fold_sums_reports_and_takes_the_longest_route():
    def report(records, sent, hops, max_hop, **extra):
        return {"events_processed": 10, "net": {"packets_sent": 3},
                "models": {"w": {"records": records, "sent": sent,
                                 "duplicates": 1, "skipped": 0}},
                "causal": {"traces": len(max_hop), "hops": len(hops),
                           "hop_latencies": hops, "max_hop": max_hop},
                **extra}

    reports = [
        report([("a", "b", 0.02)], ["m1", "m2"], [0.003], {7: 0, 8: 2}),
        report([("c", "d", 0.3)], ["m3"], [0.004, 0.2], {7: 3},
               socket={"decode_errors": 2}, callback_error_count=1),
        {"events_processed": 5, "models": {}},   # a node with no workload
    ]
    snapshot = fold_snapshot(reports, ["w"], mode="live", name="fold",
                             seed=1, duration=2.0, nodes_total=3,
                             nodes_alive=2)
    validate_obs_snapshot(snapshot)
    counters = snapshot["counters"]
    assert counters["engine.events_processed"] == 25
    assert counters["net.packets_sent"] == 6
    assert (counters["workload.sent"], counters["workload.delivered"]) == (3, 2)
    assert counters["workload.duplicates"] == 2
    assert counters["errors.decode_errors"] == 2
    assert counters["errors.callback_errors"] == 1
    assert (counters["causal.traces"], counters["causal.hops"]) == (3, 3)
    assert snapshot["gauges"] == {"nodes.alive": 2.0, "nodes.total": 3.0}
    histograms = snapshot["histograms"]
    assert histograms["workload.latency"]["count"] == 2
    assert histograms["causal.hop_latency"]["count"] == 3
    # Trace 7 reached hop 3 on the second node: a route of 4 hops, not 1.
    routes = histograms["causal.route_hops"]
    assert (routes["count"], routes["min"], routes["max"]) == (2, 3.0, 4.0)


# ----------------------------------------------------------------- sim runs
def test_sim_run_attaches_validated_snapshot(tmp_path):
    snapshot_path = tmp_path / "obs.json"
    result = traced_spec(snapshot_path=str(snapshot_path)).run()
    assert result.obs is not None
    validate_obs_snapshot(result.obs)
    assert result.obs["mode"] == "sim"
    assert result.obs["name"] == "obs-test"
    assert result.obs["counters"]["workload.sent"] == 12
    assert result.obs["counters"]["net.packets_sent"] > 0
    assert result.obs["gauges"]["nodes.total"] == 8.0
    # The file round-trips through schema validation.
    assert load_obs_snapshot(str(snapshot_path)) == result.obs


def test_causal_tracing_reconstructs_routes(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    result = traced_spec(trace_path=str(trace_path), causal=True).run()
    assert result.obs["counters"]["causal.traces"] > 0
    assert result.obs["counters"]["causal.hops"] \
        >= result.obs["counters"]["causal.traces"]
    header, records = load_trace(str(trace_path))
    assert header["mode"] == "sim" and header["seed"] == 3
    routes = reconstruct_routes(records)
    assert routes
    for route in routes:
        assert route["hops"] >= 1
        assert len(route["path"]) == route["hops"] + 1
        assert len(route["latencies"]) == route["hops"]
        assert route["total_latency"] == pytest.approx(
            sum(route["latencies"]))
    # Every reconstructed route landed in the hop-count histogram.
    assert result.obs["histograms"]["causal.route_hops"]["count"] \
        == len(routes)


def test_sim_snapshot_keys_are_the_canonical_namespace():
    result = traced_spec(causal=True).run()
    assert set(result.obs["counters"]) == set(COUNTERS)
    assert set(result.obs["gauges"]) == set(GAUGES)
    assert set(result.obs["histograms"]) == set(HISTOGRAMS)


def test_a_traced_run_writes_one_stream_to_the_named_path(tmp_path):
    traced_spec(causal=True, trace_path=str(tmp_path / "trace.jsonl")).run()
    assert [path.name for path in tmp_path.iterdir()] == ["trace.jsonl"]
    header, records = load_trace(str(tmp_path / "trace.jsonl"))
    assert header["mode"] == "sim" and header["name"] == "obs-test"
    assert records


def test_trace_level_overrides_flow_into_the_run(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    # The chord spec declares ``trace_ off``, so nothing records without
    # the per-run floor; with the floor at MED the generated transitions
    # and message sends record through their default MED thresholds.
    result = traced_spec(trace_path=str(trace_path),
                         trace_level="med").run()
    tracer = result.experiment.tracer
    # The floor opens every agent's MED gate and leaves its HIGH gate shut.
    assert all(node.lowest_agent._trace_med
               and not node.lowest_agent._trace_high
               for node in result.experiment.nodes)
    assert tracer.count("transition") > 0
    assert tracer.count("message_send") > 0
    assert tracer.count("timer") == 0           # timer still needs HIGH
    assert result.obs["counters"]["trace.records"] > 0
    header, records = load_trace(str(trace_path))
    assert any(record["cat"] == "transition" for record in records)


def test_category_override_can_silence_a_noisy_category(tmp_path):
    baseline = traced_spec(trace_level="med").run()
    silenced = traced_spec(trace_level="med",
                           category_levels={"transition": "off"}).run()
    assert baseline.experiment.tracer.count("transition") > 0
    assert silenced.experiment.tracer.count("transition") == 0
    assert silenced.experiment.tracer.count("message_send") > 0


# -------------------------------------------------------------------- facade
def test_facade_obs_kwarg_sets_spec_obs(tmp_path):
    spec = replace(traced_spec(), obs=None)
    obs = ObsConfig(snapshot_path=str(tmp_path / "obs.json"))
    result = repro.run(spec, obs=obs)
    assert result.obs is not None
    assert load_obs_snapshot(str(tmp_path / "obs.json")) == result.obs


def test_facade_rejects_obs_with_multiple_seeds():
    spec = replace(traced_spec(), obs=None)
    with pytest.raises(ValueError, match="one seed at a time"):
        repro.run(spec, seeds=3, obs=ObsConfig())
