"""The live fault table: SocketFaults verbs and verdicts, on and off the
socket's data path."""

from __future__ import annotations

import random

import pytest

from repro.network.packet import Packet
from repro.protocols import chord_agent
from repro.runtime.messages import WireCodec
from repro.transport.base import Datagram
from repro.transport.udp import FIRST_ADDRESS, SocketFaults, SocketUdpNetwork

pytestmark = pytest.mark.live


def _network(address: int = 1, peers: int = 4) -> SocketUdpNetwork:
    codec = WireCodec.for_agents([chord_agent()])
    endpoints = {a: ("127.0.0.1", 3000 + a) for a in range(1, peers + 1)}
    return SocketUdpNetwork(address, endpoints, codec)


def _lossless(faults: SocketFaults, index: int, delay: float) -> None:
    """Degrade node *index* by *delay* seconds and no loss (deterministic
    verdicts): the latency factor that maps to *delay*."""
    faults.degrade_node(index, 1.0, 1.0 + delay / 0.02)


# ---------------------------------------------------------------- verdicts
def test_fault_table_verdicts():
    faults = SocketFaults(1, rng=random.Random(0))
    assert not faults.active()
    assert faults.inbound(2) is None

    faults.partition([[1]])                  # address 2 alone
    assert faults.active()
    assert faults.drops_outbound(2)
    assert faults.inbound(2) == "drop"
    assert faults.inbound(3) is None

    faults.heal_partition()
    assert not faults.active()
    _lossless(faults, 1, 0.05)               # address 2
    assert faults.inbound(2) == pytest.approx(0.05)
    faults.degrade_node(2, 0.25, 1.0)        # address 3: capped 0.75 loss
    faults.rng = random.Random(1)
    assert "drop" in [faults.inbound(3) for _ in range(16)]


def test_loss_rolls_are_reproducible_per_seeded_stream():
    faults_a = SocketFaults(1, rng=random.Random(42))
    faults_b = SocketFaults(1, rng=random.Random(42))
    for faults in (faults_a, faults_b):
        faults.degrade_node(1, 0.5, 1.0)     # address 2, loss 0.5
    verdicts_a = [faults_a.inbound(2) for _ in range(32)]
    verdicts_b = [faults_b.inbound(2) for _ in range(32)]
    assert verdicts_a == verdicts_b
    assert "drop" in verdicts_a and None in verdicts_a


# ----------------------------------------------------------------- the verbs
def test_partition_isolates_by_group():
    faults = SocketFaults(1)
    faults.partition([[0, 1], [2, 3]])
    assert [faults.drops_outbound(peer) for peer in (2, 3, 4)] \
        == [False, True, True]
    faults.heal_partition()
    assert not any(faults.drops_outbound(peer) for peer in (2, 3, 4))

    # A node in no listed group is in the implicit group 0: it loses only
    # the listed nodes (the emulator's partition_hosts rule).
    faults.partition([[1, 2]])
    assert [faults.drops_outbound(peer) for peer in (2, 3, 4)] \
        == [True, True, False]
    # Re-partitioning replaces, never accumulates.
    faults.partition([[0, 1], [2, 3]])
    assert [faults.drops_outbound(peer) for peer in (2, 3, 4)] \
        == [False, True, True]


@pytest.mark.parametrize("groups", [
    [[0, 1], [2, 3]], [[1, 2]], [[0]], [[3], [0, 2]], [[0], [1], [2], [3]],
    [[0, 1, 2, 3]], []])
def test_partition_verdicts_are_the_emulator_s(groups):
    """Every ordered pair of four nodes: a socket drops what the emulator's
    ``partition_hosts`` drops, both ways."""
    from repro.eval.library import resolve_protocol
    from repro.eval.scenario import ScenarioSpec

    experiment = ScenarioSpec(name="groups", agents=resolve_protocol("chord"),
                              num_nodes=4, duration=1.0, seed=1).build()
    experiment.partition(groups)
    emulator = experiment.emulator
    for src in range(4):
        faults = SocketFaults(FIRST_ADDRESS + src)
        faults.partition(groups)
        for dst in range(4):
            dropped = emulator.stats.packets_dropped
            emulator.send(Packet(experiment.nodes[src].address,
                                 experiment.nodes[dst].address, b"", 1))
            emulator_drops = emulator.stats.packets_dropped > dropped
            assert faults.drops_outbound(FIRST_ADDRESS + dst) \
                == emulator_drops, (src, dst)
            receiver = SocketFaults(FIRST_ADDRESS + dst)
            receiver.partition(groups)
            assert (receiver.inbound(FIRST_ADDRESS + src) == "drop") \
                == emulator_drops, (src, dst)


def test_degrade_covers_both_directions_of_the_access_link():
    bystander = SocketFaults(1, rng=random.Random(0))
    target = SocketFaults(2, rng=random.Random(0))
    for faults in (bystander, target):
        faults.degrade_node(1, 0.7, 3.5)     # address 2
        assert faults.degraded == {2: (pytest.approx(0.05),
                                       pytest.approx(0.3))}
        _lossless(faults, 1, 0.05)
    # Everyone degrades arrivals *from* the target; the target degrades
    # arrivals from everyone (its whole access link limps).
    assert bystander.inbound(2) == pytest.approx(0.05)
    assert bystander.inbound(3) is None
    assert [target.inbound(peer) for peer in (1, 3, 4)] \
        == [pytest.approx(0.05)] * 3

    for faults in (bystander, target):
        faults.restore_node(1)
        assert not faults.active()


def test_restoring_one_degraded_node_keeps_the_other_s_rule():
    faults = SocketFaults(1)
    _lossless(faults, 0, 0.05)
    _lossless(faults, 1, 0.08)
    # Both ends degraded: two limping links in series, delays add.
    assert faults.inbound(2) == pytest.approx(0.13)
    assert faults.inbound(3) == pytest.approx(0.05)
    faults.restore_node(0)
    assert faults.inbound(2) == pytest.approx(0.08)
    assert faults.inbound(3) is None


def test_restoring_a_peer_keeps_this_node_s_own_rule():
    faults = SocketFaults(1)
    _lossless(faults, 0, 0.05)
    _lossless(faults, 1, 0.08)
    faults.restore_node(1)
    assert faults.inbound(2) == pytest.approx(0.05)
    assert faults.inbound(3) == pytest.approx(0.05)


def test_healing_a_partition_keeps_a_degrade_on_the_same_peer():
    faults = SocketFaults(1)
    faults.partition([[1]])
    _lossless(faults, 1, 0.05)
    assert faults.inbound(2) == "drop"
    faults.heal_partition()
    assert faults.inbound(2) == pytest.approx(0.05)


def test_losses_of_both_ends_compound():
    faults = SocketFaults(1, rng=random.Random(7))
    faults.degrade_node(0, 0.5, 1.0)
    faults.degrade_node(1, 0.5, 1.0)
    verdicts = [faults.inbound(2) for _ in range(4000)]
    assert verdicts.count("drop") / len(verdicts) \
        == pytest.approx(0.75, abs=0.03)


# ------------------------------------------------------------------- data path
class _FakeTransport:
    def __init__(self):
        self.sent = []

    def sendto(self, data, endpoint):
        self.sent.append((bytes(data), endpoint))


def test_outbound_partition_swallows_the_datagram_but_reports_success():
    network = _network(address=1)
    network._transport = _FakeTransport()
    network.faults.partition([[0], [1]])
    packet = Packet(src=1, dst=2, payload=Datagram("CTRL", b"x", 1), size=1)
    # The transport stack sees a successful send — the bytes die in the
    # "network", exactly like an emulator-partitioned link.
    assert network.send(packet) is True
    assert network._transport.sent == []
    assert network.fault_drops == 1
    assert network.send_drops == 0


def test_inbound_partition_drops_arrivals_before_decode():
    sender = _network(address=1)
    sender._transport = _FakeTransport()
    receiver = _network(address=2)
    arrivals = []
    receiver.set_receive_callback(2, arrivals.append)
    packet = Packet(src=1, dst=2, payload=Datagram("CTRL", b"x", 1), size=1)
    assert sender.send(packet) is True
    (wire, _), = sender._transport.sent

    receiver.faults.partition([[0], [1]])
    receiver.datagram_received(wire, ("127.0.0.1", 3001))
    assert arrivals == []
    assert receiver.fault_drops == 1

    receiver.faults.heal_partition()
    receiver.datagram_received(wire, ("127.0.0.1", 3001))
    assert len(arrivals) == 1
