"""The live fault table: SocketFaults verdicts, fault ops, control frames."""

from __future__ import annotations

import random

import pytest

from repro.network.packet import Packet
from repro.protocols import chord_agent
from repro.runtime.messages import WireCodec, WireError
from repro.transport.base import Datagram
from repro.transport.udp import SocketFaults, SocketUdpNetwork

pytestmark = pytest.mark.live


def _network(address: int = 1, peers: int = 4) -> SocketUdpNetwork:
    codec = WireCodec.for_agents([chord_agent()])
    endpoints = {a: ("127.0.0.1", 3000 + a) for a in range(1, peers + 1)}
    return SocketUdpNetwork(address, endpoints, codec)


# ---------------------------------------------------------------- SocketFaults
def test_fault_table_verdicts():
    faults = SocketFaults(1, rng=random.Random(0))
    assert not faults.active()
    assert faults.inbound(2) is None

    faults.partitioned = {2}
    assert faults.active()
    assert faults.drops_outbound(2)
    assert faults.inbound(2) == "drop"
    assert faults.inbound(3) is None

    faults.partitioned = set()
    faults.degraded[2] = (0.05, 0.0)
    assert faults.inbound(2) == pytest.approx(0.05)
    faults.degraded[3] = (0.0, 1.0)          # certain loss
    assert faults.inbound(3) == "drop"


def test_loss_rolls_are_reproducible_per_seeded_stream():
    rolls_a = [SocketFaults(1, rng=random.Random(42)).inbound(2)
               for _ in range(1)]
    faults_a = SocketFaults(1, rng=random.Random(42))
    faults_b = SocketFaults(1, rng=random.Random(42))
    faults_a.degraded[2] = (0.0, 0.5)
    faults_b.degraded[2] = (0.0, 0.5)
    verdicts_a = [faults_a.inbound(2) for _ in range(32)]
    verdicts_b = [faults_b.inbound(2) for _ in range(32)]
    assert verdicts_a == verdicts_b
    assert "drop" in verdicts_a and None in verdicts_a
    del rolls_a


# --------------------------------------------------------------- apply_fault_op
def test_partition_op_isolates_by_group():
    network = _network(address=1)
    network.apply_fault_op({"op": "partition", "groups": [[1, 2], [3, 4]]})
    assert network.faults.partitioned == {3, 4}
    network.apply_fault_op({"op": "heal-partition"})
    assert network.faults.partitioned == set()

    # A node in no listed group forms the implicit group: it loses only the
    # listed nodes (the emulator's partition_hosts rule).
    network.apply_fault_op({"op": "partition", "groups": [[2, 3]]})
    assert network.faults.partitioned == {2, 3}
    # Re-partitioning replaces, never accumulates (idempotent re-sends).
    network.apply_fault_op({"op": "partition", "groups": [[1, 2], [3, 4]]})
    assert network.faults.partitioned == {3, 4}


def test_degrade_op_covers_both_directions_of_the_access_link():
    bystander = _network(address=1)
    target = _network(address=2)
    op = {"op": "degrade", "targets": [2], "delay": 0.05, "loss": 0.3}
    bystander.apply_fault_op(op)
    target.apply_fault_op(op)
    # Everyone degrades arrivals *from* the target; the target degrades
    # arrivals from everyone (its whole access link limps).
    lossless = {"op": "degrade", "targets": [2], "delay": 0.05, "loss": 0.0}
    for network in (bystander, target):
        assert network.faults.degraded == {2: (0.05, 0.3)}
        network.apply_fault_op(lossless)    # deterministic verdicts
    assert bystander.faults.inbound(2) == pytest.approx(0.05)
    assert bystander.faults.inbound(3) is None
    assert [target.faults.inbound(peer) for peer in (1, 3, 4)] \
        == [pytest.approx(0.05)] * 3

    restore = {"op": "restore", "targets": [2]}
    bystander.apply_fault_op(restore)
    target.apply_fault_op(restore)
    assert not bystander.faults.active()
    assert not target.faults.active()


def _degrade(network, target, delay):
    network.apply_fault_op({"op": "degrade", "targets": [target],
                            "delay": delay, "loss": 0.0})


def test_restoring_one_degraded_node_keeps_the_other_s_rule():
    network = _network(address=1)
    _degrade(network, 1, 0.05)
    _degrade(network, 2, 0.08)
    # Both ends degraded: two limping links in series, delays add.
    assert network.faults.inbound(2) == pytest.approx(0.13)
    assert network.faults.inbound(3) == pytest.approx(0.05)
    network.apply_fault_op({"op": "restore", "targets": [1]})
    assert network.faults.inbound(2) == pytest.approx(0.08)
    assert network.faults.inbound(3) is None


def test_restoring_a_peer_keeps_this_node_s_own_rule():
    network = _network(address=1)
    _degrade(network, 1, 0.05)
    _degrade(network, 2, 0.08)
    network.apply_fault_op({"op": "restore", "targets": [2]})
    assert network.faults.inbound(2) == pytest.approx(0.05)
    assert network.faults.inbound(3) == pytest.approx(0.05)


def test_losses_of_both_ends_compound():
    faults = SocketFaults(1, rng=random.Random(7))
    faults.degraded = {1: (0.0, 0.5), 2: (0.0, 0.5)}
    verdicts = [faults.inbound(2) for _ in range(4000)]
    assert verdicts.count("drop") / len(verdicts) \
        == pytest.approx(0.75, abs=0.03)


def test_unknown_fault_op_raises():
    with pytest.raises(WireError, match="unknown fault op"):
        _network().apply_fault_op({"op": "teleport"})


# -------------------------------------------------------------- control channel
def test_control_frame_installs_rules_even_while_detached():
    network = _network(address=2)
    network.detach_host(2)                  # "crashed": data path muted
    frame = SocketUdpNetwork.control_frame(
        {"op": "partition", "groups": [[1], [2, 3, 4]]})
    network.datagram_received(frame, ("127.0.0.1", 9))
    assert network.control_frames == 1
    assert network.faults.partitioned == {1}


def test_bad_control_frames_count_as_line_noise():
    network = _network()
    header = SocketUdpNetwork._HEADER.pack(
        SocketUdpNetwork.MAGIC, SocketUdpNetwork._FRAME_CONTROL, 0)
    network.datagram_received(header + b"not json", ("127.0.0.1", 9))
    network.datagram_received(header + b'["a list"]', ("127.0.0.1", 9))
    network.datagram_received(header + b'{"op":"teleport"}', ("127.0.0.1", 9))
    assert network.decode_errors == 3
    assert not network.faults.active()


# ------------------------------------------------------------------- data path
class _FakeTransport:
    def __init__(self):
        self.sent = []

    def sendto(self, data, endpoint):
        self.sent.append((bytes(data), endpoint))


def test_outbound_partition_swallows_the_datagram_but_reports_success():
    network = _network(address=1)
    network._transport = _FakeTransport()
    network.apply_fault_op({"op": "partition", "groups": [[1], [2]]})
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

    receiver.apply_fault_op({"op": "partition", "groups": [[1], [2]]})
    receiver.datagram_received(wire, ("127.0.0.1", 3001))
    assert arrivals == []
    assert receiver.fault_drops == 1

    receiver.apply_fault_op({"op": "heal-partition"})
    receiver.datagram_received(wire, ("127.0.0.1", 3001))
    assert len(arrivals) == 1
