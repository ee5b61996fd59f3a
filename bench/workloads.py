"""The five benchmark workloads.

Each workload is one class with four steps, driven by :mod:`bench.child`:

``generate()``  inputs from the seed, before any clock runs (pure Python);
``setup(phase)``  child start -> ready for the first measured op, in slices;
``measure(phase)``  the measured phase, in slices;
``outcome()``  op counts, latencies, packet counts and check results.

``repro`` is imported inside ``setup`` so that import, ``.mac`` parse and
codegen time is part of ``setup_s``.  ``seconds`` sizes the measured phase:
the work is a fixed function of it (frozen ``*_PER_S`` constants measured on
the build host), so one ``(seed, seconds)`` pair always simulates exactly the
same events and the phase takes about ``seconds`` of raw wall there.

The underlay topology is part of a workload's configuration, like its node
count: it comes from ``TOPOLOGY_SEED``, not from ``--seed``.  Everything else
that is drawn at random (spec seed, op stream, crash victims, publishers,
traffic matrix, flap edges, message contents) comes from ``--seed``.
"""

from __future__ import annotations

import random
from array import array
from time import perf_counter
from typing import Callable, Optional

from .calib import Phase
from .layers import Tracer, install

TOPOLOGY_SEED = 7


def percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (exact, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


class Workload:
    """Base: sizing, the seeded input RNG, and the traced-call helper."""

    name = ""
    #: Why the workload exists (copied into BENCHMARK.json).
    why = ""

    def __init__(self, seed: int, seconds: float, scale: float = 1.0,
                 tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}:{seed}")
        self.problems: list[str] = []

    def scaled(self, value: float, floor: int) -> int:
        """A configuration size under ``scale`` (1.0 in real runs; the
        self-check shrinks node counts and join periods with it)."""
        return max(floor, round(value * self.scale))

    def traced(self, fn: Callable, layer: str) -> Callable:
        """*fn* as a harness-side span of *layer* (itself when untraced)."""
        if self.tracer is None:
            return fn
        return self.tracer.shim(fn, layer, fn.__name__)

    def start(self, phase: Phase) -> None:
        """The first two set-up slices of every workload: import ``repro``
        (then wrap its layer boundaries, when tracing), and build."""
        phase.slice(self._import)
        if self.tracer is not None:
            install(self.tracer)
        phase.slice(self._build)

    def trace_deliveries(self, emulator) -> None:
        """Book the receive side of *emulator* to the emulator layer."""
        if self.tracer is not None:
            emulator.install_delivery_wrapper(
                lambda deliver: self.tracer.shim(deliver, "emulator",
                                                 "NetworkEmulator.deliver"))

    def generate(self) -> None:
        """Draw the inputs from the seed (no ``repro`` imports, no clock)."""

    def setup(self, phase: Phase) -> None:
        raise NotImplementedError

    def measure(self, phase: Phase) -> None:
        raise NotImplementedError

    def outcome(self) -> dict:
        raise NotImplementedError


# ===================================================================== overlays
class _ScenarioWorkload(Workload):
    """Shared shape of the two ``ScenarioSpec`` workloads."""

    NODES = 0
    JOIN_S = 0.0
    #: Simulated seconds per slice, sized so a slice stays under ~0.25 s of
    #: raw wall (the host's speed is tracked slice by slice).
    JOIN_SLICE_S = 0.0
    RUN_SLICE_S = 0.0

    def _import(self) -> None:
        from repro.eval import scenario
        from repro.eval.library import resolve_protocol
        from repro.network.topology import transit_stub_topology
        from repro.runtime.failure import FailureDetectorConfig

        self.scenario = scenario
        self.resolve_protocol = resolve_protocol
        self.transit_stub_topology = transit_stub_topology
        self.FailureDetectorConfig = FailureDetectorConfig

    def make_spec(self, topology):
        raise NotImplementedError

    def _build(self) -> None:
        topology = self.traced(self.transit_stub_topology, "topology")(
            self.nodes, seed=TOPOLOGY_SEED)
        self.experiment = self.make_spec(topology).build()
        self.trace_deliveries(self.experiment.emulator)
        self.after_build()

    def after_build(self) -> None:
        pass

    def _advance(self, phase: Phase, sim_seconds: float, step: float) -> None:
        run = self.experiment.run
        remaining = sim_seconds
        while remaining > 1e-9:
            dt = min(step, remaining)
            phase.slice(lambda: run(dt))
            remaining -= dt

    def setup(self, phase: Phase) -> None:
        self.start(phase)
        start = phase.calibrated_s
        self._advance(phase, self.join_s, self.JOIN_SLICE_S)
        self.converge_s = phase.calibrated_s - start
        self._mark()

    def _mark(self) -> None:
        stats = self.experiment.emulator.stats
        self.mark = (self.experiment.simulator.events_processed,
                     stats.packets_sent, stats.packets_dropped)

    def measure(self, phase: Phase) -> None:
        self._advance(phase, self.run_sim_s, self.RUN_SLICE_S)

    def program_counts(self) -> dict:
        """Counters the program keeps itself, over the measured phase."""
        experiment = self.experiment
        stats = experiment.emulator.stats
        events, sent, dropped = self.mark
        retransmits = sum(
            transport_stats.retransmissions
            for node in experiment.nodes
            for transport_stats in node.transport_host.stats().values())
        return {
            "engine.events": experiment.simulator.events_processed - events,
            "emulator.sends": stats.packets_sent - sent,
            "emulator.drops": stats.packets_dropped - dropped,
            # Transports alive at the end (a recovered node starts fresh
            # ones), set-up included.
            "transport.retransmits": retransmits,
        }


class ChordKvChurn(_ScenarioWorkload):
    name = "chord_kv_churn"
    why = ("Generated Chord DHT under crash/rejoin churn serving a Zipf KV "
           "mix (70% quorum reads): transport, emulator, agent and generated "
           "transitions share the run; the paper's headline case")

    NODES = 40
    JOIN_S = 50.0
    JOIN_SLICE_S = 6.0
    RUN_SLICE_S = 5.0
    #: Simulated seconds of op window per raw measured second.
    WINDOW_PER_S = 24.0
    OPS_PER_SIM_S = 25.0
    CRASH_EVERY_S = 10.0
    DOWNTIME_S = 15.0
    #: After the last op is due: time for every retried op to complete.
    DRAIN_S = 40.0
    #: A client re-issues an op whose quorum has not landed after this long.
    RETRY_S = 2.0
    KEYS = 256

    def generate(self) -> None:
        self.nodes = self.scaled(self.NODES, 12)
        self.join_s = float(self.scaled(self.JOIN_S, 20))
        self.clients = self.nodes // 2
        self.window_s = max(6.0, self.WINDOW_PER_S * self.seconds)
        self.run_sim_s = self.window_s + self.DRAIN_S
        self.ops = int(self.OPS_PER_SIM_S * self.window_s)
        crashes = max(1, round(self.window_s / self.CRASH_EVERY_S))
        spacing = self.window_s / crashes
        # Clients never crash (an op's issuer is always up); the others take
        # turns in a seeded order, one node per crash slot.
        order = self.rng.sample(range(self.clients, self.nodes),
                                self.nodes - self.clients)
        self.crashes = [(self.join_s + spacing * (slot + 0.5),
                         order[slot % len(order)])
                        for slot in range(crashes)]

    def make_spec(self, topology):
        s = self.scenario
        crash_models = tuple(
            s.CrashModel(at=at, victims=(victim,),
                         recover_after=self.DOWNTIME_S)
            for at, victim in self.crashes)
        return s.ScenarioSpec(
            name=self.name, agents=self.resolve_protocol("chord"),
            num_nodes=self.nodes, duration=self.join_s + self.run_sim_s,
            seed=self.seed, topology=topology,
            # Detection in ~3 s: an op that met a dead node is retried into a
            # repaired ring within the drain period.
            failure_config=self.FailureDetectorConfig(
                failure_timeout=3.0, heartbeat_timeout=1.0,
                check_interval=0.5),
            models=(s.ChurnModel(join="staggered",
                                 join_spacing=self.join_s * 0.4 / self.nodes),)
            + crash_models
            + (s.WorkloadModel(kind="kv", start=self.join_s, packets=self.ops,
                               gap=self.window_s / self.ops, keys=self.KEYS,
                               zipf_s=1.1, read_fraction=0.7, replicas=3,
                               write_quorum=2, read_quorum=2,
                               clients=self.clients),))

    def after_build(self) -> None:
        """Client-side retry: once a simulated second, every client re-issues
        its ops that have waited ``RETRY_S`` for a quorum (same seqno, same
        version, so a retried put is idempotent)."""
        experiment = self.experiment
        self.kv = experiment.compiled_models[-1]
        stores = self.kv.kv_state.stores[:self.clients]
        simulator = experiment.simulator
        self.retries = 0

        def sweep() -> None:
            now = simulator.now
            for store in stores:
                for seqno, pending in sorted(store.pending.items()):
                    if now - pending.issued_at >= self.RETRY_S:
                        self.retries += 1
                        if pending.kind == "put":
                            store.put(pending.key, pending.version, seqno)
                        else:
                            store.get(pending.key, seqno)

        when = self.join_s + 1.0
        while when < self.join_s + self.run_sim_s:
            simulator.schedule_at(when, sweep)
            when += 1.0

    def outcome(self) -> dict:
        state = self.kv.kv_state
        observations = state.observations
        # Open loop: an op's latency runs from when it was *due*, so the time
        # spent waiting for a retry counts.
        due = [event.time for event in self.kv.events]
        records = self.kv.shard_payload()["records"]
        latencies = sorted((record[6] - due[record[0]]) * 1e3
                           for record in records)
        completed = {record[0] for record in records}
        if len(completed) != len(records):
            self.problems.append("an op completed twice")
        phantom = self.kv.metrics()["phantom_reads"]
        if phantom:
            self.problems.append(f"{phantom:.0f} phantom reads")
        if observations.skipped:
            self.problems.append(
                f"{observations.skipped} ops skipped: a client was down")
        counts = self.program_counts()
        return {
            "attempted": self.ops,
            "ok": len(completed),
            "latencies_ms": latencies,
            "net_pkts": counts["emulator.sends"],
            "counts": counts,
            "extra": {"retries": self.retries, "crashes": len(self.crashes),
                      "latency_max_ms": latencies[-1] if latencies else 0.0},
        }


class ScribePubSub(_ScenarioWorkload):
    name = "scribe_pubsub"
    why = ("Pub/sub over Scribe over generated Pastry: time is in Pastry "
           "transitions and key arithmetic, little in transport, emulator or "
           "engine, so a kernel or transport change should not move it")

    NODES = 32
    JOIN_S = 30.0
    JOIN_SLICE_S = 4.0
    RUN_SLICE_S = 2.0
    WINDOW_PER_S = 18.0
    PUBLISHES_PER_SIM_S = 11.0
    DRAIN_S = 5.0
    TOPICS = 4

    def generate(self) -> None:
        self.nodes = self.scaled(self.NODES, 10)
        #: Topic creation and the staggered subscriptions (a quarter second
        #: apart, fixed by the pubsub model) end the join period.
        self.subscribe_s = 0.25 * (self.nodes + 1) + 2.0
        self.join_s = self.scaled(self.JOIN_S, 12) + self.subscribe_s
        self.window_s = max(4.0, self.WINDOW_PER_S * self.seconds)
        self.run_sim_s = self.window_s + self.DRAIN_S
        self.publishes = int(self.PUBLISHES_PER_SIM_S * self.window_s)

    def make_spec(self, topology):
        s = self.scenario
        return s.ScenarioSpec(
            name=self.name, agents=self.resolve_protocol("scribe-pastry"),
            num_nodes=self.nodes, duration=self.join_s + self.run_sim_s,
            seed=self.seed, topology=topology,
            failure_config=self.FailureDetectorConfig(
                failure_timeout=10.0, heartbeat_timeout=4.0,
                check_interval=1.0),
            models=(s.ChurnModel(join="staggered", join_spacing=0.15),
                    # source=-1: a random publisher per publication.
                    s.WorkloadModel(kind="pubsub", source=-1,
                                    start=self.join_s - self.subscribe_s,
                                    packets=self.publishes,
                                    gap=self.window_s / self.publishes,
                                    topics=self.TOPICS, fanout=0)))

    def after_build(self) -> None:
        self.pubsub = self.experiment.compiled_models[-1]

    def outcome(self) -> dict:
        metrics = self.pubsub.metrics()
        records = self.pubsub.shard_payload()["records"]
        if metrics["duplicates"]:
            self.problems.append(
                f"{metrics['duplicates']:.0f} duplicate deliveries")
        if len({(receiver, seqno) for receiver, seqno, _ in records}) \
                != len(records):
            self.problems.append("a (receiver, publication) pair delivered twice")
        counts = self.program_counts()
        return {
            "attempted": int(metrics["expected"]),
            "ok": len(records),
            "latencies_ms": sorted(latency * 1e3 for _, _, latency in records),
            "net_pkts": counts["emulator.sends"],
            "counts": counts,
            "extra": {"publishes": int(metrics["sent"])},
        }


# ===================================================================== emulator
class EmulatorSteady(Workload):
    name = "emulator_steady"
    why = ("No protocol plane: packets of 64-1400 B over warm route plans on "
           "a 600-host transit-stub emulator; network.emulator and "
           "runtime.engine do all the work, router none")

    HOSTS = 600
    NEIGHBOURS = 8
    SIZES = (64, 200, 1000, 1400)
    #: Five packets every 50 simulated ms: few enough in flight at once that
    #: no queue fills and nothing is dropped (simulated time costs no wall).
    BATCH = 5
    BATCH_GAP_S = 0.05
    PACKETS_PER_S = 165_000
    SLICE_PACKETS = 25_000
    #: Quiet simulated time between warm-up and the first measured packet.
    START_GAP_S = 1.0

    def generate(self) -> None:
        self.hosts = self.scaled(self.HOSTS, 40)
        rng = self.rng
        self.neighbours = [
            rng.sample([h for h in range(self.hosts) if h != src],
                       self.NEIGHBOURS)
            for src in range(self.hosts)]
        self.packets = max(self.BATCH, int(self.PACKETS_PER_S * self.seconds)
                           // self.BATCH * self.BATCH)
        self.sources = array("H", (rng.randrange(self.hosts)
                                   for _ in range(self.packets)))
        self.slots = array("B", (rng.randrange(self.NEIGHBOURS)
                                 for _ in range(self.packets)))
        self.sizes = array("H", (rng.choice(self.SIZES)
                                 for _ in range(self.packets)))

    # ---------------------------------------------------------------- set-up
    def _import(self) -> None:
        from repro.network.emulator import NetworkEmulator
        from repro.network.packet import Packet
        from repro.network.topology import transit_stub_topology
        from repro.runtime.engine import Simulator

        self.NetworkEmulator = NetworkEmulator
        self.Packet = Packet
        self.transit_stub_topology = transit_stub_topology
        self.Simulator = Simulator

    def _attach(self, topology) -> None:
        self.simulator = self.Simulator(seed=self.seed)
        self.emulator = self.NetworkEmulator(self.simulator, topology)
        self.addresses = [self.emulator.attach_host().address
                          for _ in range(self.hosts)]
        self.latencies: list[float] = []
        record = self.latencies.append
        simulator = self.simulator

        def on_receive(packet) -> None:
            record(simulator.now - packet.created_at)

        for address in self.addresses:
            self.emulator.set_receive_callback(address, on_receive)

    def _build(self) -> None:
        self.topology = self.traced(self.transit_stub_topology, "topology")(
            self.hosts, seed=TOPOLOGY_SEED)
        self.traced(self._attach, "scenario_build")(self.topology)
        self.trace_deliveries(self.emulator)

    def _warm(self, first: int, last: int) -> None:
        """One cold packet per (source, neighbour) pair: builds route plans."""
        send, packet, addresses = self.emulator.send, self.Packet, self.addresses
        for src in range(first, last):
            for dst in self.neighbours[src]:
                send(packet(addresses[src], addresses[dst], None, 64))
        self.simulator.run()

    def setup(self, phase: Phase) -> None:
        self.start(phase)
        start = phase.calibrated_s
        step = max(1, self.hosts // 4)
        for first in range(0, self.hosts, step):
            phase.slice(lambda: self._warm(first,
                                           min(first + step, self.hosts)))
        self.converge_s = phase.calibrated_s - start
        self.latencies.clear()
        stats = self.emulator.stats
        self.mark = (self.simulator.events_processed, stats.packets_sent,
                     stats.packets_dropped, stats.packets_delivered)
        self.origin = self.simulator.now + self.START_GAP_S

    # -------------------------------------------------------------- measured
    def _inject(self, offset: int) -> None:
        send, packet, addresses = self.emulator.send, self.Packet, self.addresses
        sources, slots, sizes = self.sources, self.slots, self.sizes
        neighbours = self.neighbours
        for index in range(offset, offset + self.BATCH):
            src = sources[index]
            send(packet(addresses[src], addresses[neighbours[src][slots[index]]],
                        None, sizes[index]))

    def _run_slice(self, first: int, last: int) -> None:
        """Schedule the injections of packets [first, last) and run to the
        instant the next slice's first batch is due."""
        schedule_at = self.simulator.schedule_at
        for offset in range(first, last, self.BATCH):
            schedule_at(self.origin + (offset // self.BATCH) * self.BATCH_GAP_S,
                        self._inject, offset)
        if last >= self.packets:
            self.finish()
        else:
            self.simulator.run(
                until=self.origin + (last // self.BATCH) * self.BATCH_GAP_S)

    def finish(self) -> None:
        self.simulator.run()

    def measure(self, phase: Phase) -> None:
        for first in range(0, self.packets, self.SLICE_PACKETS):
            last = min(first + self.SLICE_PACKETS, self.packets)
            phase.slice(lambda: self._run_slice(first, last))

    def outcome(self) -> dict:
        stats = self.emulator.stats
        events, sent, dropped, delivered = self.mark
        sent = stats.packets_sent - sent
        dropped = stats.packets_dropped - dropped
        delivered = stats.packets_delivered - delivered
        if sent != delivered + dropped:
            self.problems.append(
                f"sent {sent} != delivered {delivered} + dropped {dropped}")
        if delivered != len(self.latencies):
            self.problems.append("delivery callback count != packets_delivered")
        return {
            "attempted": sent,
            "ok": delivered,
            "latencies_ms": sorted(latency * 1e3 for latency in self.latencies),
            "net_pkts": sent,
            "counts": {
                "engine.events": self.simulator.events_processed - events,
                "emulator.sends": sent,
                "emulator.drops": dropped,
            },
            "extra": self.extra(),
        }

    def extra(self) -> dict:
        return {}


class EmulatorFlap(EmulatorSteady):
    name = "emulator_flap"
    why = ("The steady traffic while a topology edge is cut and healed every "
           "2500 packets: plan pruning, invalidation and re-Dijkstra dominate, "
           "so a route cache that is slower to invalidate shows here")

    HOSTS = 240
    PACKETS_PER_S = 22_000
    SLICE_PACKETS = 2_500
    FLAP_EVERY_S = 25.0

    def generate(self) -> None:
        super().generate()
        span = self.packets // self.BATCH * self.BATCH_GAP_S
        self.flap_draws = [self.rng.random()
                           for _ in range(int(span / self.FLAP_EVERY_S) + 1)]

    def setup(self, phase: Phase) -> None:
        super().setup(phase)
        import networkx

        # Only edges with a detour are cut, so no packet loses its last path.
        graph = self.topology.graph
        bridges = {frozenset(edge) for edge in networkx.bridges(graph)}
        self.edges = sorted(tuple(sorted(edge)) for edge in graph.edges()
                            if frozenset(edge) not in bridges)
        self.cut: Optional[tuple] = None
        self.flaps = 0
        for index, draw in enumerate(self.flap_draws):
            self.simulator.schedule_at(
                self.origin + index * self.FLAP_EVERY_S, self._flap,
                self.edges[int(draw * len(self.edges))])

    def _flap(self, edge: tuple) -> None:
        if self.cut is not None:
            self.emulator.enable_link(*self.cut)
        self.emulator.disable_link(*edge)
        self.cut = edge
        self.flaps += 1

    def finish(self) -> None:
        self.simulator.run()
        if self.cut is not None:
            self.emulator.enable_link(*self.cut)
            self.cut = None

    def extra(self) -> dict:
        return {"flaps": self.flaps}


# ========================================================================= live
class _Pipe:
    """In-memory ``asyncio.DatagramTransport`` stand-in: ``sendto`` is the
    peer's ``datagram_received`` (no kernel, no event loop)."""

    def __init__(self, peer, endpoint: tuple) -> None:
        self.peer = peer
        self.endpoint = endpoint

    def sendto(self, data: bytes, endpoint=None) -> None:
        self.peer.datagram_received(data, self.endpoint)

    def close(self) -> None:
        pass


class LiveFraming(Workload):
    name = "live_framing"
    why = ("The live data path without the kernel: Chord WireCodec and "
           "SocketUdpNetwork framing, demux and fragmentation over an "
           "in-memory pipe, one op outstanding; no simulation layer runs")

    OPS_PER_S = 22_000
    SLICE_OPS = 3_000
    #: One op in five carries a payload above FRAGMENT_THRESHOLD, so the tail
    #: percentile sits inside the fragmenting class, not on its edge.
    BIG_EVERY = 5
    BIG_BYTES = 70_000
    BIG_POOL = 8

    def generate(self) -> None:
        rng = self.rng
        self.ops = max(self.BIG_EVERY, int(self.OPS_PER_S * self.seconds))
        self.fields = [
            {"target": rng.randrange(2**32), "origin": rng.randrange(2**32),
             "purpose": rng.randrange(4), "idx": rng.randrange(32),
             "hops": rng.randrange(64)}
            for _ in range(self.ops)]
        self.big = [rng.randbytes(self.BIG_BYTES + rng.randrange(4_000))
                    for _ in range(self.BIG_POOL)]

    def _import(self) -> None:
        from repro.network.packet import Packet
        from repro.protocols import chord_agent
        from repro.runtime.messages import Message, WireCodec
        from repro.transport.base import Datagram
        from repro.transport.udp import SocketUdpNetwork

        self.Packet, self.Message, self.Datagram = Packet, Message, Datagram
        self.WireCodec, self.SocketUdpNetwork = WireCodec, SocketUdpNetwork
        self.chord_agent = chord_agent

    def _build(self) -> None:
        agent = self.chord_agent()
        types = {t.name: t for t in agent.MESSAGE_TYPES}
        self.lookup_type, self.data_type = types["lookup"], types["data"]
        codec = self.WireCodec.for_agents([agent])
        endpoints = {1: ("127.0.0.1", 1), 2: ("127.0.0.1", 2)}
        self.near = self.SocketUdpNetwork(1, endpoints, codec)
        self.far = self.SocketUdpNetwork(2, endpoints, codec)
        self.near.connection_made(_Pipe(self.far, endpoints[1]))
        self.far.connection_made(_Pipe(self.near, endpoints[2]))
        self.echoed: list = []
        self.near.set_receive_callback(1, self.echoed.append)
        far, packet = self.far, self.Packet

        def echo(received) -> None:
            far.send(packet(src=2, dst=1, payload=received.payload,
                            size=received.size))

        self.far.set_receive_callback(2, echo)

    def setup(self, phase: Phase) -> None:
        self.start(phase)
        self.converge_s = 0.0
        self.mismatches = 0
        self.raw_latencies: list[tuple[float, list[float]]] = []
        self.mark = (self.near.frames_sent + self.far.frames_sent,
                     self.near.fragments_sent + self.far.fragments_sent)

    def _round_trips(self, first: int, last: int) -> list[float]:
        near, echoed = self.near, self.echoed
        packet, datagram, message = self.Packet, self.Datagram, self.Message
        lookup_type, data_type = self.lookup_type, self.data_type
        durations = []
        for index in range(first, last):
            fields = self.fields[index]
            if index % self.BIG_EVERY == 0:
                payload = self.big[(index // self.BIG_EVERY) % self.BIG_POOL]
                sent = message(type=data_type,
                               fields={"target": fields["target"],
                                       "hops": fields["hops"]},
                               payload=payload, payload_size=len(payload),
                               protocol="chord")
            else:
                payload = None
                sent = message(type=lookup_type, fields=fields,
                               protocol="chord")
            start = perf_counter()
            near.send(packet(src=1, dst=2,
                             payload=datagram("CTRL", sent, sent.size),
                             size=sent.size))
            durations.append(perf_counter() - start)
            got = echoed.pop().payload.payload if echoed else None
            if got is None or got.fields != sent.fields \
                    or got.payload != payload or got.type is not sent.type:
                self.mismatches += 1
        return durations

    def measure(self, phase: Phase) -> None:
        for first in range(0, self.ops, self.SLICE_OPS):
            last = min(first + self.SLICE_OPS, self.ops)
            durations = phase.slice(lambda: self._round_trips(first, last))
            self.raw_latencies.append((phase.speeds[-1], durations))

    def outcome(self) -> dict:
        near, far = self.near.stats(), self.far.stats()
        for key in ("decode_errors", "reassembly_timeouts", "send_drops"):
            if near[key] or far[key]:
                self.problems.append(f"{key}: {near[key]} + {far[key]}")
        if self.echoed:
            self.problems.append(f"{len(self.echoed)} unexpected echoes")
        frames = near["frames_sent"] + far["frames_sent"] - self.mark[0]
        fragments = near["fragments_sent"] + far["fragments_sent"] - self.mark[1]
        return {
            "attempted": self.ops,
            "ok": self.ops - self.mismatches,
            # Calibrated ms: each op's wall time scaled by its slice's factor.
            "latencies_ms": sorted(duration * factor * 1e3
                                   for factor, durations in self.raw_latencies
                                   for duration in durations),
            "net_pkts": frames,
            "counts": {"udp.frames": frames, "udp.fragments": fragments},
            "extra": {},
        }


WORKLOADS = {cls.name: cls for cls in (ChordKvChurn, ScribePubSub,
                                       EmulatorSteady, EmulatorFlap,
                                       LiveFraming)}
