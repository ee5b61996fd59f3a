"""Fixed-seed determinism regression tests for the simulation core.

The engine/emulator hot path has been rewritten for speed (flat tuple heap
entries, cached route plans, hand-rolled Dijkstra — see docs/PERFORMANCE.md);
these tests pin the property that rewrite must preserve: two runs from the
same seed produce *identical* event counts, delivery statistics, and metric
samples, down to the last float bit.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.network.emulator import NetworkEmulator
from repro.network.packet import Packet
from repro.network.topology import transit_stub_topology
from repro.runtime.engine import Simulator


def run_workload(seed: int) -> dict:
    """A deterministic traffic workload over engine + emulator + links.

    Mixes plain sends, random loss, payload tags (link-stress accounting),
    and cancelled events, then returns every observable metric.
    """
    num_hosts = 40
    simulator = Simulator(seed=seed)
    topology = transit_stub_topology(num_hosts, seed=seed)
    emulator = NetworkEmulator(simulator, topology, random_loss_rate=0.02)
    addresses = [emulator.attach_host().address for _ in range(num_hosts)]

    latencies: list[float] = []

    def on_receive(packet: Packet) -> None:
        latencies.append(simulator.now - packet.created_at)

    for address in addresses:
        emulator.set_receive_callback(address, on_receive)

    rng = simulator.fork_rng("determinism-traffic")

    def send_one(src: int, dst: int, size: int, tag: str) -> None:
        emulator.send(Packet(src=src, dst=dst, payload=None, size=size),
                      payload_tag=tag)

    cancelled = 0
    for index in range(800):
        src = rng.randrange(num_hosts)
        dst = rng.randrange(num_hosts)
        if dst == src:
            dst = (dst + 1) % num_hosts
        size = rng.randint(50, 1200)
        cell = [0]
        simulator.schedule_gen(index * 0.01,
                               partial(send_one, addresses[src], addresses[dst],
                                       size, f"payload-{index % 13}"),
                               cell)
        # Cancel a deterministic subset to exercise pending() and
        # stale-generation skipping in the run loop.
        if index % 17 == 0:
            simulator.cancel_gen(cell)
            cancelled += 1
    simulator.run()

    link_totals = sorted(
        (key, view.packets, view.bytes, view.drops, view.max_stress)
        for key, view in emulator.link_stats().items()
    )
    return {
        "events_processed": simulator.events_processed,
        "pending_after_run": simulator.pending(),
        "cancelled": cancelled,
        "packets_sent": emulator.stats.packets_sent,
        "packets_delivered": emulator.stats.packets_delivered,
        "packets_dropped": emulator.stats.packets_dropped,
        "bytes_delivered": emulator.stats.bytes_delivered,
        "final_time": simulator.now,
        "latencies": tuple(latencies),
        "link_totals": tuple(link_totals),
    }


@pytest.mark.determinism
def test_same_seed_runs_are_bit_identical():
    first = run_workload(seed=11)
    second = run_workload(seed=11)
    assert first == second
    # The workload actually exercised the interesting paths.
    assert first["packets_delivered"] > 0
    assert first["packets_dropped"] > 0
    assert first["pending_after_run"] == 0


@pytest.mark.determinism
def test_different_seeds_diverge():
    assert run_workload(seed=11) != run_workload(seed=12)
