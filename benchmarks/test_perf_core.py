"""Microbenchmarks for the simulation core (kernel events/sec, emulator
packets/sec).

These are the pytest-visible companions of ``scripts/run_benchmarks.py``:
small enough to run in every test invocation, with deliberately conservative
throughput floors so they fail only on genuine order-of-magnitude
regressions (CI machines vary).  The authoritative before/after numbers live
in ``BENCH_core.json``; see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from run_benchmarks import bench_emulator, bench_kernel, metrics_fingerprint

#: Floors are ~10x below the measured numbers (see BENCH_core.json) so they
#: only trip on real regressions, not machine variance.
KERNEL_FLOOR_EVENTS_PER_SEC = 40_000
EMULATOR_FLOOR_PACKETS_PER_SEC = 10_000


@pytest.mark.bench
def test_kernel_events_per_sec_floor():
    result = bench_kernel(num_events=50_000)
    assert result["events_per_sec"] > KERNEL_FLOOR_EVENTS_PER_SEC


@pytest.mark.bench
def test_emulator_packets_per_sec_floor():
    result = bench_emulator(num_hosts=100, num_packets=10_000)
    assert result["packets_per_sec"] > EMULATOR_FLOOR_PACKETS_PER_SEC
    assert result["delivered"] > 0
    # O(N)-amortised host attachment: 100 hosts must attach near-instantly.
    assert result["attach_seconds"] < 0.5


@pytest.mark.bench
@pytest.mark.determinism
def test_fingerprint_workload_is_deterministic():
    assert metrics_fingerprint() == metrics_fingerprint()
