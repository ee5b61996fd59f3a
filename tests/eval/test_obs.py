"""The observability layer: registry primitives, artifacts, causal tracing.

The byte-identity contract of the *disabled* path is pinned separately in
test_obs_pin.py; this module covers the enabled path — the metrics
registry, the canonical namespace, snapshot/trace artifact round-trips,
facade plumbing, and route reconstruction.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel
from repro.obs import (Histogram, MetricsRegistry, ObsConfig, base_registry,
                       load_obs_snapshot, load_trace, reconstruct_routes,
                       validate_obs_snapshot)


def traced_spec(seed: int = 3, **obs_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="obs-test", agents=resolve_protocol("chord"),
        num_nodes=8, duration=40.0, seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="route", source=-1, start=10.0,
                              packets=12, gap=1.0)),
        obs=ObsConfig(**obs_kwargs))


# ------------------------------------------------------------------ registry
def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    registry.gauge("g").add(0.5)
    histogram = registry.histogram("h", bounds=(1.0, 10.0))
    histogram.observe_many([0.5, 5.0, 50.0])
    snapshot = registry.snapshot()
    assert snapshot["counters"]["c"] == 5
    assert snapshot["gauges"]["g"] == 3.0
    assert snapshot["histograms"]["h"]["counts"] == [1, 1, 1]
    assert snapshot["histograms"]["h"]["min"] == 0.5
    assert snapshot["histograms"]["h"]["max"] == 50.0
    assert histogram.mean() == pytest.approx(55.5 / 3)


def test_histogram_bounds_validation():
    with pytest.raises(ValueError):
        Histogram(())
    with pytest.raises(ValueError):
        Histogram((1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram((2.0, 1.0))
    Histogram((1.0, 2.0, 3.0))   # ascending is fine


def test_base_registry_precreates_the_full_namespace():
    snapshot = base_registry().snapshot()
    assert snapshot["counters"]["errors.decode_errors"] == 0
    assert snapshot["counters"]["errors.reassembly_timeouts"] == 0
    assert snapshot["gauges"]["nodes.total"] == 0.0
    assert snapshot["histograms"]["causal.route_hops"]["count"] == 0
    validate_obs_snapshot({"schema": "repro.obs/1", **snapshot})


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
    canonical = base_registry().snapshot()
    for section in ("counters", "gauges", "histograms"):
        assert set(result.obs[section]) == set(canonical[section])


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
    assert tracer.has_overrides
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
