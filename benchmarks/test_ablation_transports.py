"""Ablation: transport priority classes and locking classification.

Two of the design choices DESIGN.md calls out:

* **Priority-segregated transports** — the paper motivates declaring several
  blocking transports so high-priority control traffic is not head-of-line
  blocked behind bulk data.  We measure control-message latency across a
  congested bottleneck when control shares the bulk transport versus when it
  uses its own instance.  Both configurations run until every control
  message has arrived: on the shared transport the last one waits behind all
  280 kB of bulk data, about 2.3 s of wire time on the 125 kB/s bottleneck,
  plus the repair of the queue's drops (NewReno recovers a window's losses
  in one round trip each, without a timeout).
* **Read vs. write locking of transitions** — control transitions serialize
  exclusively, data transitions (``locking read``, proved read-only by the
  code generator) share the lock.  We measure the read fraction of the
  transitions run under a streaming workload, from the ``locking`` field of
  their MED ``"transition"`` trace records: the quantity that determines how
  much parallelism a multi-threaded deployment could extract.
"""

from __future__ import annotations

import math

from repro.eval import ChurnModel, ScenarioSpec, Stack, WorkloadModel, mean
from repro.eval.reports import format_table
from repro.obs import ObsConfig
from repro.network import dumbbell_topology
from repro.runtime import Simulator
from repro.network import NetworkEmulator
from repro.transport import TransportKind, TransportHost

CONTROL_MESSAGES = 10
#: A bound on the run, never reached when the transports work: the shared
#: transport's last control message arrives a few seconds in.
HORIZON = 2000.0


def control_latency(separate_transport: bool, seed: int) -> float:
    """Mean latency of small control messages while bulk data saturates a
    bottleneck, or ``inf`` if one never arrived within ``HORIZON``."""
    simulator = Simulator(seed=seed)
    topology = dumbbell_topology(clients_per_side=1,
                                 bottleneck_bandwidth=125_000.0)
    emulator = NetworkEmulator(simulator, topology)
    sender = emulator.attach_host()
    receiver_addr = emulator.attach_host()
    host = TransportHost(simulator, emulator, sender.address)
    receiver_host = TransportHost(simulator, emulator, receiver_addr.address)
    host.declare(TransportKind.TCP, "BULK")
    receiver_host.declare(TransportKind.TCP, "BULK")
    if separate_transport:
        host.declare(TransportKind.SWP, "CONTROL")
        receiver_host.declare(TransportKind.SWP, "CONTROL")
    control_name = "CONTROL" if separate_transport else "BULK"

    arrivals: dict[int, float] = {}
    sent_at: dict[int, float] = {}

    def deliver(src, payload, size, transport):
        if isinstance(payload, tuple) and payload[0] == "control":
            arrivals[payload[1]] = simulator.now
            if len(arrivals) == CONTROL_MESSAGES:
                simulator.stop()

    receiver_host.set_deliver_upcall(deliver)
    host.set_deliver_upcall(lambda *args: None)

    # Saturate the bottleneck with bulk messages.
    for index in range(200):
        host.send("BULK", receiver_addr.address, ("bulk", index), 1400)
    # Interleave small control messages.
    for index in range(CONTROL_MESSAGES):
        def send_control(i=index):
            sent_at[i] = simulator.now
            host.send(control_name, receiver_addr.address, ("control", i), 64)
        simulator.schedule(0.5 + index * 0.2, send_control)
    simulator.run(until=HORIZON)
    if len(arrivals) < CONTROL_MESSAGES:
        return math.inf
    return mean([arrivals[i] - sent_at[i] for i in arrivals])


def test_ablation_priority_transports(once):
    def run():
        shared = control_latency(separate_transport=False, seed=141)
        separate = control_latency(separate_transport=True, seed=142)
        return shared, separate

    shared, separate = once(run)
    print()
    print(format_table(["configuration", "control latency ms"],
                       [("control on bulk TCP", f"{shared * 1000:.1f}"),
                        ("dedicated control transport", f"{separate * 1000:.1f}")],
                       title="Ablation — priority-segregated transports"))
    # Every control message arrived in both configurations, the shared one
    # within seconds: bulk TCP recovers from the bottleneck's drops without
    # backing off to MAX_RTO ...
    assert math.isfinite(separate) and shared < 5.0
    # ... and a dedicated transport avoids head-of-line blocking behind the
    # bulk queue.
    assert separate < shared


def test_ablation_locking_read_fraction(once):
    def run():
        spec = ScenarioSpec(
            name="ablation-locking",
            agents=Stack("randtree"),
            num_nodes=20,
            duration=90.0,
            seed=143,
            models=(ChurnModel(join="immediate"),
                    WorkloadModel(kind="multicast", source=0, group=1,
                                  start=60.0, packets=200, gap=0.1)),
            # Transition records only: the other MED categories stay off.
            obs=ObsConfig(trace_level="med", category_levels={
                "message_send": "off", "message_recv": "off"}),
        )
        experiment = spec.run().experiment
        per_receiver = experiment.compiled_models[-1].observations.per_receiver
        tracer = experiment.tracer
        assert tracer.dropped == 0
        locking: dict = {node.address: [] for node in experiment.nodes}
        for record in tracer.records("transition"):
            locking[record.node].append(record.data["locking"])
        fractions = [modes.count("read") / len(modes) if modes else 0.0
                     for modes in locking.values()]
        delivered = mean([len(per_receiver.get(node.address, []))
                          for node in experiment.nodes[1:]])
        return mean(fractions), delivered

    read_fraction, delivered = once(run)
    print()
    print(f"\nAblation — locking: mean read-lock fraction under streaming = "
          f"{read_fraction:.2f} (packets delivered per node: {delivered:.0f})")
    # Under a data-heavy workload most transitions are read-locked data
    # operations, which is what the paper's multi-threaded runtime exploits.
    assert read_fraction > 0.5
    assert delivered > 0
