"""Integration tests: DSL text → generated code → running overlay → metrics."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen import compile_mac, get_registry
from repro.eval import ChurnModel, ScenarioSpec, WorkloadModel, link_stress, mean
from repro.eval.metrics import stretch_samples
from repro.network import NetworkEmulator, multi_site_topology, transit_stub_topology
from repro.protocols import overcast_agent, scribe_stack
from repro.runtime import MacedonNode, Simulator
from repro.apps.payload import AppPayload


@dataclass(frozen=True)
class Pkt:
    seqno: int


def test_user_written_spec_runs_end_to_end(tmp_path):
    """A brand-new protocol written as mac text compiles and runs."""
    mac_text = """
    protocol flooder
    addressing ip
    trace_low
    states { active; }
    transports { UDP U; }
    messages { U flood { int hop; ipaddr origin; } }
    state_variables { map seen; fail_detect fpeers peers; }
    neighbor_types { fpeers 8 { double rtt; } }
    transitions {
        any API init {
            state_change("active")
            if not is_bootstrap:
                neighbor_add(peers, bootstrap_addr)
        }
        active recv flood {
            key = (field("origin"), field("hop"))
            if key not in seen:
                seen[key] = now()
                upcall_deliver(payload, payload_size, 0, source=field("origin"))
                for peer in peers:
                    if peer.addr != source:
                        send_msg("flood", peer.addr, hop=field("hop") + 1,
                                 origin=field("origin"), payload=payload,
                                 payload_size=payload_size)
        }
        active API multicast [locking read;] {
            for peer in peers:
                send_msg("flood", peer.addr, hop=0, origin=my_addr,
                         payload=payload, payload_size=payload_size)
        }
        active recv flood [locking read;] { pass }
    }
    """
    agent_class = compile_mac(mac_text, "flooder.mac")
    simulator = Simulator(seed=101)
    emulator = NetworkEmulator(simulator, transit_stub_topology(5, seed=101))
    nodes = [MacedonNode(simulator, emulator, [agent_class]) for _ in range(5)]
    got = []
    for node in nodes:
        node.macedon_register_handlers(deliver=lambda p, s, t: got.append(p))
        node.macedon_init(nodes[0].address)
    simulator.run(until=10)
    # star topology around the bootstrap: a multicast from a leaf reaches the root.
    nodes[2].macedon_multicast(0, Pkt(1), 300)
    simulator.run(until=20)
    assert got  # at least the bootstrap delivered it


def test_generated_code_matches_registry_loaded_class():
    registry = get_registry()
    source = registry.generated_source("overcast")
    assert "class OvercastAgent(Agent):" in source
    assert registry.load_protocol("overcast").PROTOCOL == "overcast"


def test_stretch_and_link_stress_from_real_overlay_run():
    topology = multi_site_topology([4] * 4, seed=102)
    spec = ScenarioSpec(
        name="overcast-stretch", agents=[overcast_agent()], num_nodes=16,
        duration=120.0 + 3 * 0.5 + 20.0, seed=102, topology=topology,
        models=(ChurnModel(join="immediate"),
                WorkloadModel(kind="multicast", group=1, start=120.0,
                              packets=3)))
    experiment = spec.run().experiment
    source = experiment.bootstrap
    per_receiver = experiment.compiled_models[-1].observations.per_receiver
    latencies = {address: mean(values)
                 for address, values in per_receiver.items()
                 if address != source.address}
    samples = stretch_samples(experiment.emulator, source.address, latencies)
    assert samples
    assert all(sample.stretch >= 0.99 for sample in samples)
    stress = link_stress(experiment.emulator)
    assert stress["links"] > 0
    assert stress["max"] >= 1


def test_splitstream_full_stack_over_chord_substrate():
    """Three-layer stack with the substrate switched at load time."""
    stack = scribe_stack(base="chord")
    simulator = Simulator(seed=103)
    emulator = NetworkEmulator(simulator, transit_stub_topology(15, seed=103))
    nodes = [MacedonNode(simulator, emulator, stack) for _ in range(15)]
    received = {node.address: 0 for node in nodes}
    for node in nodes:
        node.macedon_register_handlers(
            deliver=lambda p, s, t, a=node.address:
            received.__setitem__(a, received[a] + 1))
        node.macedon_init(nodes[0].address)
    simulator.run(until=120)
    source = nodes[1]
    source.macedon_create_group(11)
    simulator.run(until=125)
    for node in nodes:
        if node is not source:
            node.macedon_join(11)
    simulator.run(until=170)
    payload = AppPayload(seqno=0, sent_at=simulator.now, source=source.address)
    source.macedon_multicast(11, payload, 1000)
    simulator.run(until=220)
    delivered = sum(1 for node in nodes if node is not source and received[node.address] > 0)
    assert delivered == len(nodes) - 1
