"""The overlay experiment harness.

An :class:`OverlayExperiment` is the reproduction's equivalent of one
ModelNet run: a topology, an emulator, N overlay nodes all running the same
protocol stack, a bootstrap, and the *primitives* the scenario engine
(:mod:`repro.eval.scenario`) compiles its event models onto — joining,
fail-stop crashes, recoveries, partitions, and link cuts.  It is built from
one :class:`~repro.eval.scenario.ScenarioSpec` by ``spec.build()`` and keeps
that spec as :attr:`OverlayExperiment.spec`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..network.emulator import NetworkEmulator
from ..network.topology import TopologyError, transit_stub_topology
from ..runtime.engine import Simulator
from ..runtime.node import MacedonNode
from ..runtime.tracing import Tracer
from .scenario import bind_model, draw_model


class OverlayExperiment:
    """One emulated deployment of a protocol stack across many nodes."""

    def __init__(self, spec: "ScenarioSpec") -> None:  # noqa: F821
        if spec.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        #: The :class:`~repro.eval.scenario.ScenarioSpec` this run was built
        #: from.
        self.spec = spec
        topology = spec.topology(spec.seed) if callable(spec.topology) \
            else spec.topology
        self.agent_classes = spec.resolve_agents()
        self.simulator = Simulator(seed=spec.seed)
        self.topology = topology or transit_stub_topology(
            spec.num_nodes, seed=spec.seed)
        capacity = len(self.topology.clients)
        if spec.num_nodes > capacity:
            raise TopologyError(
                f"num_nodes={spec.num_nodes} exceeds the {capacity} client "
                f"attachment points of topology {self.topology.name!r}; "
                f"generate the topology with num_clients >= {spec.num_nodes} "
                f"(or lower num_nodes) so every overlay node gets its own "
                f"access link")
        self.emulator = NetworkEmulator(self.simulator, self.topology,
                                        random_loss_rate=spec.random_loss_rate)
        # Before any node: each agent precomputes its trace gates from the
        # tracer's category policy.
        if spec.obs is not None:
            from ..obs import build_tracer
            self.tracer = build_tracer(spec.obs)
        else:
            self.tracer = Tracer()
        self.nodes: list[MacedonNode] = [
            MacedonNode(self.simulator, self.emulator, self.agent_classes,
                        tracer=self.tracer,
                        failure_config=spec.failure_config,
                        params=spec.params)
            for _ in range(spec.num_nodes)
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
    def join_node(self, node) -> None:
        """Initialise one node against the bootstrap (recovering it first if
        it is currently crashed)."""
        node = self._resolve_node(node)
        if node.crashed:
            self.recover_node(node)
        else:
            node.macedon_init(self.bootstrap.address)

    def crash_node(self, node) -> None:
        """Fail-stop one node.  Idempotent."""
        self._resolve_node(node).crash()

    def recover_node(self, node) -> None:
        """Recover a crashed node, re-joining the overlay (its fresh stack
        carries the spec's ``params`` rows again)."""
        self._resolve_node(node).recover(self.bootstrap.address)

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

    def apply_model(self, model, *, horizon: Optional[float] = None):
        """Draw a scenario model on :attr:`scenario_rng`, bind it to this
        experiment — the executor of every fault verb, owner of every
        node — and schedule its events from *now*.

        Event times are offsets from the current simulated time; *horizon*
        defaults to the spec's duration.  Returns the compiled model.
        """
        horizon = horizon if horizon is not None else self.spec.duration
        drawn = draw_model(model, len(self.nodes),
                           self.nodes[0].lowest_agent.key_space.size,
                           self.scenario_rng, horizon, self)
        compiled = bind_model(drawn, self, dict(enumerate(self.nodes)),
                              self.workload_streams, horizon)
        self.compiled_models.append(compiled)
        for event in compiled.events:
            self.simulator.schedule(event.time, event.apply)
        return compiled
