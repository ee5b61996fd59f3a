"""The overlay experiment harness.

An :class:`OverlayExperiment` is the reproduction's equivalent of one
ModelNet run: a topology, an emulator, N overlay nodes all running the same
protocol stack, a bootstrap, and the *primitives* the scenario engine
(:mod:`repro.eval.scenario`) compiles its event models onto — joining,
fail-stop crashes, recoveries, partitions, and link cuts.

Historically this class also carried the measurement patterns of the paper's
figures directly; those methods remain, but are now thin wrappers over the
scenario models (``init_all`` over :class:`~repro.eval.scenario.ChurnModel`,
``multicast_latency_probe`` over
:class:`~repro.eval.scenario.WorkloadModel`), so a script can start from the
simple API and graduate to full :class:`~repro.eval.scenario.ScenarioSpec`
descriptions without the two paths diverging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Type

from ..network.emulator import NetworkEmulator
from ..network.topology import Topology, TopologyError, transit_stub_topology
from ..runtime.agent import Agent
from ..runtime.engine import Simulator
from ..runtime.failure import FailureDetectorConfig
from ..runtime.node import MacedonNode
from ..runtime.tracing import Tracer


@dataclass
class ExperimentConfig:
    """Parameters of one overlay experiment."""

    num_nodes: int
    seed: int = 0
    topology: Optional[Topology] = None
    random_loss_rate: float = 0.0
    strict_locking: bool = True
    #: Seconds of simulated time allowed for overlay construction/convergence.
    convergence_time: float = 120.0
    #: Failure-detector tuning (the paper's f/g) applied to every node.
    failure_config: Optional[FailureDetectorConfig] = None
    #: Observability opt-in (:class:`repro.obs.ObsConfig`).  Consulted at
    #: construction time because the tracer's category policy must exist
    #: before any agent precomputes its trace gates.
    obs: Optional[object] = None


class OverlayExperiment:
    """One emulated deployment of a protocol stack across many nodes."""

    def __init__(self, agent_classes: Sequence[Type[Agent]],
                 config: ExperimentConfig) -> None:
        if config.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.config = config
        self.agent_classes = list(agent_classes)
        self.simulator = Simulator(seed=config.seed)
        self.topology = config.topology or transit_stub_topology(
            config.num_nodes, seed=config.seed)
        capacity = len(self.topology.clients)
        if config.num_nodes > capacity:
            raise TopologyError(
                f"num_nodes={config.num_nodes} exceeds the {capacity} client "
                f"attachment points of topology {self.topology.name!r}; "
                f"generate the topology with num_clients >= {config.num_nodes} "
                f"(or lower num_nodes) so every overlay node gets its own "
                f"access link")
        self.emulator = NetworkEmulator(self.simulator, self.topology,
                                        random_loss_rate=config.random_loss_rate)
        if config.obs is not None:
            from ..obs import build_tracer
            self.tracer = build_tracer(config.obs)
        else:
            self.tracer = Tracer()
        self.nodes: list[MacedonNode] = [
            MacedonNode(self.simulator, self.emulator, self.agent_classes,
                        tracer=self.tracer, strict_locking=config.strict_locking,
                        failure_config=config.failure_config)
            for _ in range(config.num_nodes)
        ]
        self.bootstrap = self.nodes[0]
        self._by_address = {node.address: node for node in self.nodes}
        #: RNG every scenario model applied to this experiment draws from.
        self.scenario_rng = self.simulator.fork_rng("scenario")
        #: Models compiled onto this experiment's timeline, in apply order.
        self.compiled_models: list = []
        #: Stream ids claimed by applied workload models (kept distinct so
        #: concurrent workloads never score each other's probes).
        self.workload_streams: set[int] = set()
        #: Optional idempotent tuning hook (ScenarioSpec.configure).  Re-run
        #: after every node recovery, because recovery rebuilds the agent
        #: stack from the original classes and would otherwise silently
        #: revert per-node protocol tuning on rejoined nodes.
        self.configure_hook: Optional[Callable[["OverlayExperiment"], None]] = None

    # ----------------------------------------------------------------- plumbing
    def node(self, address: int) -> MacedonNode:
        return self._by_address[address]

    def _resolve_node(self, node) -> MacedonNode:
        """Accept a node object or a node *index* (scenario models use indices)."""
        if isinstance(node, MacedonNode):
            return node
        return self.nodes[node]

    def run(self, duration: float) -> float:
        """Advance the simulation by *duration* seconds."""
        return self.simulator.run(until=self.simulator.now + duration)

    def converge(self) -> float:
        """Run for the configured convergence period."""
        return self.run(self.config.convergence_time)

    def states(self) -> dict[str, int]:
        """FSM-state histogram of the lowest-layer agents (a health check).

        Crashed nodes are reported under ``"crashed"`` rather than whatever
        FSM state their dead stack last held.
        """
        histogram: dict[str, int] = {}
        for node in self.nodes:
            state = "crashed" if node.crashed else node.lowest_agent.state
            histogram[state] = histogram.get(state, 0) + 1
        return histogram

    # ------------------------------------------------------ scenario primitives
    def join_node(self, node, bootstrap: Optional[int] = None) -> None:
        """Initialise one node against the bootstrap (recovering it first if
        it is currently crashed)."""
        node = self._resolve_node(node)
        bootstrap = bootstrap if bootstrap is not None else self.bootstrap.address
        if node.crashed:
            self._recover(node, bootstrap)
        else:
            node.macedon_init(bootstrap)

    def crash_node(self, node) -> None:
        """Fail-stop one node.  Idempotent."""
        self._resolve_node(node).crash()

    def recover_node(self, node, *, rejoin: bool = True) -> None:
        """Recover a crashed node, re-joining the overlay unless told not to."""
        self._recover(self._resolve_node(node),
                      self.bootstrap.address if rejoin else None)

    def _recover(self, node: MacedonNode, bootstrap: Optional[int]) -> None:
        """Recover *node*, re-applying the configure hook to the fresh stack
        (recovery rebuilds agents from the original classes, so per-node
        tuning would otherwise be lost on exactly the churned nodes)."""
        was_crashed = node.crashed
        node.recover(bootstrap)
        if was_crashed and self.configure_hook is not None:
            self.configure_hook(self)

    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Host-level partition by node indices (see ``partition_hosts``)."""
        address_groups = [[self._resolve_node(index).address for index in group]
                          for group in groups]
        self.emulator.partition_hosts(address_groups)

    def heal_partition(self) -> None:
        self.emulator.heal_partition()

    def disable_link(self, u: int, v: int) -> None:
        """Cut one underlay edge (targeted route-plan invalidation)."""
        self.emulator.disable_link(u, v)

    def enable_link(self, u: int, v: int) -> None:
        self.emulator.enable_link(u, v)

    def disable_link_direction(self, u: int, v: int) -> None:
        """Blackhole only the u->v direction (asymmetric partition)."""
        self.emulator.disable_link_direction(u, v)

    def enable_link_direction(self, u: int, v: int) -> None:
        self.emulator.enable_link_direction(u, v)

    def degrade_link(self, u: int, v: int, bandwidth_factor: float = 1.0,
                     latency_factor: float = 1.0) -> None:
        """Degrade one underlay edge (bottleneck-link fault injection)."""
        self.emulator.degrade_edge(u, v, bandwidth_factor=bandwidth_factor,
                                   latency_factor=latency_factor)

    def restore_link(self, u: int, v: int) -> None:
        self.emulator.restore_edge(u, v)

    def degrade_node(self, node, bandwidth_factor: float = 1.0,
                     latency_factor: float = 1.0) -> None:
        """Degrade a node's access links (slow-node fault injection)."""
        self.emulator.degrade_host(self._resolve_node(node).address,
                                   bandwidth_factor=bandwidth_factor,
                                   latency_factor=latency_factor)

    def restore_node(self, node) -> None:
        self.emulator.restore_host(self._resolve_node(node).address)

    def apply_model(self, model, *, horizon: Optional[float] = None,
                    immediate: bool = False):
        """Compile a scenario model and schedule its events from *now*.

        Event times are offsets from the current simulated time.  With
        *immediate*, events due at exactly this instant run synchronously —
        which is how ``init_all()`` keeps its original "nodes are initialised
        when the call returns" contract.  Returns the compiled model.
        """
        horizon = horizon if horizon is not None else self.config.convergence_time
        compiled = model.instantiate(self, self.scenario_rng, horizon)
        self.compiled_models.append(compiled)
        for event in compiled.events:
            if immediate and event.time <= 0.0:
                event.apply()
            else:
                self.simulator.schedule(event.time, event.apply,
                                        label=f"scenario:{event.kind}")
        return compiled

    # -------------------------------------------------------------- measurement
    def init_all(self, *, staggered: float = 0.0) -> None:
        """Call ``macedon_init`` on every node (optionally staggering joins).

        Thin wrapper over :class:`~repro.eval.scenario.ChurnModel` with no
        churn: immediate joins happen synchronously before this returns;
        staggered joins are scheduled ``staggered`` seconds apart.
        """
        from .scenario import ChurnModel

        model = ChurnModel(join="staggered" if staggered > 0 else "immediate",
                           join_spacing=staggered, churn_fraction=0.0)
        self.apply_model(model, immediate=True)

    def multicast_latency_probe(self, source: MacedonNode, group: int,
                                *, packets: int = 5, packet_bytes: int = 1000,
                                gap: float = 0.5,
                                settle: float = 20.0) -> dict[int, float]:
        """Send a short multicast burst and measure per-receiver average latency.

        Returns {receiver address: mean overlay latency in seconds} over the
        packets that receiver actually received.  Used by the NICE stretch
        and latency figures.  Thin wrapper over
        :class:`~repro.eval.scenario.WorkloadModel`: any deliver handlers the
        application registered keep firing during the probe and are restored
        afterwards.
        """
        from .scenario import WorkloadModel

        model = WorkloadModel(kind="multicast",
                              source=self.nodes.index(source), group=group,
                              packets=packets, gap=gap,
                              packet_bytes=packet_bytes)
        compiled = self.apply_model(model)
        try:
            self.run(packets * gap + settle)
        finally:
            compiled.restore()
        observations = compiled.observations
        return {address: sum(values) / len(values)
                for address, values in observations.per_receiver.items()
                if values and address != source.address}
