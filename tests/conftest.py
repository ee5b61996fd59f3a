"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.network import NetworkEmulator, transit_stub_topology
from repro.runtime import MacedonNode, Simulator, Tracer


@pytest.fixture
def simulator() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def small_topology():
    return transit_stub_topology(12, seed=42)


@pytest.fixture
def emulator(simulator, small_topology) -> NetworkEmulator:
    return NetworkEmulator(simulator, small_topology)


@pytest.fixture
def tracer() -> Tracer:
    return Tracer()


def build_overlay(agent_classes, num_nodes, *, seed=1, run_for=90.0):
    """Construct, initialise, and converge a small overlay; returns (sim, emu, nodes)."""
    simulator = Simulator(seed=seed)
    topology = transit_stub_topology(num_nodes, seed=seed)
    emulator = NetworkEmulator(simulator, topology)
    tracer = Tracer()
    nodes = [MacedonNode(simulator, emulator, agent_classes, tracer=tracer)
             for _ in range(num_nodes)]
    for node in nodes:
        node.macedon_init(nodes[0].address)
    simulator.run(until=run_for)
    return simulator, emulator, nodes


@pytest.fixture
def overlay_builder():
    return build_overlay
