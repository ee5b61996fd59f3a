"""Tests for the evaluation framework (metrics, LOC, reports, harness)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.eval import (
    ChurnModel,
    ScenarioSpec,
    WorkloadModel,
    average_correct_route_entries,
    chord_correct_entry_count,
    correct_chord_fingers,
    expansion_factor,
    format_series,
    format_table,
    generated_loc,
    group_by_site,
    mean,
    percentile,
    relative_delay_penalty,
    spec_loc,
    stretch_samples,
)
from repro.eval.metrics import StretchSample, zipf_cdf
from repro.network import NetworkEmulator, transit_stub_topology
from repro.protocols import randtree_agent
from repro.runtime import Simulator
from repro.runtime.keys import KeySpace


def test_stretch_samples_and_rdp():
    simulator = Simulator(seed=1)
    emulator = NetworkEmulator(simulator, transit_stub_topology(3, seed=1))
    a = emulator.attach_host().address
    b = emulator.attach_host().address
    direct = emulator.ip_latency(a, b)
    samples = stretch_samples(emulator, a, {b: direct * 2, a: 0.0})
    assert len(samples) == 1
    assert samples[0].stretch == pytest.approx(2.0)
    assert relative_delay_penalty(samples) == pytest.approx(2.0)
    assert relative_delay_penalty([]) == 0.0


def test_stretch_sample_degenerate_direct_latency():
    sample = StretchSample(receiver=1, overlay_latency=0.5, direct_latency=0.0)
    assert sample.stretch == 1.0


def test_mean_and_percentile():
    assert mean([]) == 0.0
    assert mean([1, 2, 3]) == 2.0
    assert percentile([], 0.5) == 0.0
    assert percentile([1, 2, 3, 4, 5], 0.0) == 1
    assert percentile([1, 2, 3, 4, 5], 1.0) == 5
    assert percentile([1, 2, 3, 4, 5], 0.5) == 3


def test_zipf_cdf_is_a_cdf_and_uniform_at_zero_skew():
    cdf = zipf_cdf(64, 1.1)
    assert len(cdf) == 64
    assert all(low <= high for low, high in zip(cdf, cdf[1:]))
    assert cdf[-1] == 1.0                   # exactly: a draw never overruns
    assert cdf[0] > 1 / 64                  # rank 0 is the popular key
    assert zipf_cdf(4, 0.0) == [0.25, 0.5, 0.75, 1.0]
    assert zipf_cdf(1, 3.0) == [1.0]


def test_group_by_site():
    grouped = group_by_site({1: 0.5, 2: 0.7, 3: 0.9}, {1: 0, 2: 0, 3: 1})
    assert grouped == {0: [0.5, 0.7], 1: [0.9]}


def test_correct_chord_fingers_matches_manual_ring():
    space = KeySpace(bits=8, digit_bits=4)
    membership = [(10, 1), (100, 2), (200, 3)]
    correct = correct_chord_fingers(10, membership, num_fingers=8, key_space=space)
    assert correct[0] == (100, 2)        # 10 + 1 -> next node is 100
    assert correct[7] == (200, 3)        # 10 + 128 = 138 -> next node is 200
    # Wrapping: 200 + 64 = 264 mod 256 = 8 -> wraps to node 10.
    wrapped = correct_chord_fingers(200, membership, num_fingers=8, key_space=space)
    assert wrapped[6] == (10, 1)


class _FakeChord:
    def __init__(self, my_key, key_space, fingers):
        self.my_key = my_key
        self.key_space = key_space
        self._fingers = fingers

    def finger_table(self):
        return self._fingers


class _FakeNode:
    def __init__(self, address, agent):
        self.address = address
        self._agent = agent

    def agent(self, protocol):
        return self._agent


@given(st.randoms(use_true_random=False), st.integers(1, 40))
def test_the_sorted_once_oracle_equals_the_per_node_one(rng, count):
    """Fig 10's snapshot sorts the membership once; each node's count must
    equal the per-node computation and a brute-force scan of the ring, with
    duplicate nodes and shared keys in the membership."""
    space = KeySpace(bits=8, digit_bits=4)
    keys = [rng.randrange(space.size) for _ in range(count)]
    keys += rng.choices(keys, k=rng.randrange(4))          # shared keys
    addresses = [rng.randrange(1, 2 * count) for _ in keys]  # duplicate nodes
    membership = list(zip(keys, addresses))
    ring = sorted(set(membership))

    def first_at_or_after(target):
        return min((entry for entry in ring if entry[0] >= target),
                   default=ring[0])

    nodes, expected_total = [], 0
    for my_key, address in membership:
        fingers = {index: rng.choice(ring) for index in range(8)
                   if rng.random() < 0.9}
        agent = _FakeChord(my_key, space, fingers)
        nodes.append(_FakeNode(address, agent))
        brute = sum(1 for index, entry in fingers.items()
                    if first_at_or_after((my_key + (1 << index)) % space.size)
                    == entry)
        assert chord_correct_entry_count(agent, membership, num_fingers=8) \
            == brute
        expected_total += brute
    assert average_correct_route_entries(nodes, num_fingers=8) \
        == expected_total / len(nodes)


def test_loc_reporting_consistency():
    spec = spec_loc()
    generated = generated_loc()
    factors = expansion_factor()
    assert set(spec) == set(generated) == set(factors)
    assert all(factors[name] == pytest.approx(generated[name] / spec[name])
               for name in spec)


def test_format_table_and_series_alignment():
    table = format_table(["name", "value"], [("a", 1.5), ("long-name", 20)],
                         title="demo")
    lines = table.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    series = format_series("curve", [(0.0, 1.0), (1.0, 2.0)])
    assert "curve" in series
    assert "1.000" in series


def test_overlay_experiment_end_to_end():
    spec = ScenarioSpec(
        name="harness", agents=[randtree_agent()], num_nodes=10,
        duration=60.0 + 3 * 0.5 + 20.0, seed=5,
        models=(ChurnModel(join="immediate"),
                WorkloadModel(kind="multicast", group=1, start=60.0,
                              packets=3)))
    experiment = spec.build()
    experiment.run(60.0)
    assert experiment.states().get("joined") == 10
    experiment.run(spec.duration - 60.0)
    per_receiver = experiment.compiled_models[-1].observations.per_receiver
    latencies = {address: mean(values)
                 for address, values in per_receiver.items()
                 if address != experiment.bootstrap.address}
    assert len(latencies) >= 8
    assert all(value > 0 for value in latencies.values())


def test_overlay_experiment_rejects_bad_config():
    with pytest.raises(ValueError):
        ScenarioSpec(name="empty", agents=[randtree_agent()], num_nodes=0,
                     duration=10.0).build()


@given(st.lists(st.floats(min_value=0.0, max_value=1e3,
                          allow_nan=False), min_size=1, max_size=50))
def test_mean_bounded_by_min_max(values):
    m = mean(values)
    assert min(values) - 1e-9 <= m <= max(values) + 1e-9
