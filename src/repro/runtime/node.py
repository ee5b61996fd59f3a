"""A MACEDON overlay node.

One :class:`MacedonNode` couples, for one emulated host:

* a host address on the network emulator;
* the transport subsystem (the named TCP/UDP/SWP instances the lowest-layer
  protocol declared);
* a :class:`~repro.runtime.stack.ProtocolStack` of agents;
* a failure detector feeding ``error`` API transitions;
* the application's registered upcall handlers (:attr:`MacedonNode.handlers`,
  which the highest agent calls directly).

It also implements the runtime side of the MACEDON API: ``macedon_init`` and
the data/control calls are forwarded to the highest agent in the stack.

The node is clock- and wire-agnostic: ``simulator`` may be any
:class:`~repro.runtime.driver.Driver` (the discrete-event
:class:`~repro.runtime.engine.Simulator` or the wall-clock
:class:`~repro.live.driver.LiveDriver`), and ``emulator`` anything providing
the network surface the node and its transports use (``attach_host`` /
``set_receive_callback`` / ``send`` / ``detach_host`` / ``reattach_host``) —
the in-process :class:`~repro.network.emulator.NetworkEmulator` or the
socket-backed :class:`~repro.transport.udp.SocketUdpNetwork`.  The same
protocol stack therefore runs in simulation and in live deployment, which is
the paper's central claim.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Type

from ..api.handlers import Handlers
from ..network.emulator import NetworkEmulator
from ..transport.base import TransportKind
from ..transport.demux import TransportHost
from .agent import Agent
from .engine import Simulator
from .failure import FailureDetector, FailureDetectorConfig
from .messages import Message, _Heartbeat
from .stack import ProtocolStack
from .tracing import Tracer


class MacedonNode:
    """One overlay participant: transports + agent stack + application handlers."""

    def __init__(
        self,
        simulator: "Simulator",   # any Driver (sim or live); see module docstring
        emulator: "NetworkEmulator",   # any network backend (emulator or sockets)
        agent_classes: Sequence[Type[Agent]],
        *,
        tracer: Optional[Tracer] = None,
        topology_node: Optional[int] = None,
        failure_config: Optional[FailureDetectorConfig] = None,
        params: Sequence[tuple[str, str, Any]] = (),
    ) -> None:
        self.simulator = simulator
        self.emulator = emulator
        self.tracer = tracer if tracer is not None else Tracer()
        self.handlers = Handlers()
        self._agent_classes = list(agent_classes)
        self._failure_config = failure_config
        #: ``(protocol, var, value)`` rows set on every fresh agent stack.
        self._params = tuple(params)

        host = emulator.attach_host(topology_node)
        self.address: int = host.address
        self.host = host
        self._build(epoch=0)
        self.initialized = False
        self.crashed = False
        #: Lifecycle counters (how often this node fail-stopped / recovered).
        self.crash_count = 0
        self.recover_count = 0

    # ------------------------------------------------------------------- setup
    def _build(self, epoch: int) -> None:
        """A fresh transport subsystem under restart *epoch*, failure
        detector and agent stack, tuned by the ``params`` rows: what
        construction and every recovery build, in this order."""
        self.transport_host = TransportHost(self.simulator, self.emulator,
                                            self.address, epoch=epoch)
        self.transport_host.set_deliver_upcall(self._on_transport_deliver)
        self.failure_detector = FailureDetector(
            self.simulator,
            send_heartbeat=self._send_heartbeat,
            on_failure=self._on_peer_failure,
            config=self._failure_config,
        )
        self.stack = ProtocolStack(self, self._agent_classes)
        self.stack.validate_layering()
        for protocol, var, value in self._params:
            setattr(self.stack.agent(protocol), var, value)
        self._declare_transports()

    def _declare_transports(self) -> None:
        lowest = self.stack.lowest
        declarations = lowest.TRANSPORT_DECLS
        if not declarations:
            self.transport_host.ensure_default()
            return
        for kind_name, instance_name in declarations:
            kind = TransportKind.parse(kind_name)
            self.transport_host.declare(kind, instance_name)

    @property
    def heartbeat_transport(self) -> str:
        declared = self.stack.lowest.TRANSPORT_DECLS
        if declared:
            return declared[0][1]
        return self.transport_host.DEFAULT_TRANSPORT

    # --------------------------------------------------------------- lifecycle
    @property
    def alive(self) -> bool:
        return not self.crashed

    def crash(self) -> None:
        """Fail-stop this node (the scenario engine's kill primitive).

        Everything that could generate future events is silenced: protocol
        and runtime timers are cancelled, the transport subsystem drops its
        retransmission state and mutes both directions, the failure detector
        stops sweeping (recovery builds a fresh one), and the emulated host
        detaches so in-flight packets addressed to it are dropped.  Peers keep
        their own failure detectors running, which is exactly what drives
        their ``error`` API transitions *f* seconds of silence later.
        Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        self.initialized = False
        self.failure_detector.stop()
        for agent in self.stack:
            agent.shutdown()
        self.transport_host.shutdown()
        self.emulator.detach_host(self.address)

    def recover(self, bootstrap: Optional[int] = None) -> None:
        """Restart a crashed node with a factory-fresh protocol stack.

        The host reattaches at its old address and attachment point, a new
        transport subsystem replaces the dead one (re-registering the
        network receive callback), the failure detector starts from a clean
        slate, and the agent stack is rebuilt from the original classes —
        fail-stop recovery loses all protocol state, as in the paper's
        ModelNet kill/restart runs.  Passing *bootstrap* immediately re-joins
        the overlay via :meth:`macedon_init`; omit it to leave the node up
        but idle.  Idempotent for nodes that are not crashed.
        """
        if not self.crashed:
            return
        self.recover_count += 1
        self.emulator.reattach_host(self.address)
        self._build(epoch=self.crash_count)
        self.crashed = False
        if bootstrap is not None:
            self.macedon_init(bootstrap)

    # --------------------------------------------------------------- MACEDON API
    def macedon_init(self, bootstrap: int, protocol: Optional[str] = None) -> None:
        """Initialise the stack (``macedon_init`` in Figure 3).

        Agents are initialised bottom-up so a higher layer can immediately use
        its substrate from inside its own ``init`` transition.  *protocol* is
        accepted for API fidelity; the stack already fixes which protocols run.
        """
        del protocol  # The stack composition determines the protocols.
        if self.crashed:
            raise RuntimeError(
                f"macedon_init on crashed node {self.address}; call recover() first")
        self.failure_detector.start()
        for agent in self.stack:
            agent.api_call("init", int(bootstrap))
        self.initialized = True

    def macedon_register_handlers(self, deliver=None, forward=None,
                                  notify=None, upcall=None) -> None:
        """Install the application's upcall handlers (Figure 3)."""
        self.handlers = Handlers(deliver=deliver, forward=forward,
                                 notify=notify, upcall=upcall)

    def macedon_route(self, dest_key: int, payload: Any, size: int,
                      priority: int = -1) -> Any:
        return self.stack.highest.api_call("route", int(dest_key), payload,
                                           size, priority)

    def macedon_routeIP(self, dest: int, payload: Any, size: int,
                        priority: int = -1) -> Any:
        return self.stack.highest.api_call("routeIP", int(dest), payload, size,
                                           priority)

    def macedon_multicast(self, group: int, payload: Any, size: int,
                          priority: int = -1) -> Any:
        return self.stack.highest.api_call("multicast", int(group), payload,
                                           size, priority)

    def macedon_anycast(self, group: int, payload: Any, size: int,
                        priority: int = -1) -> Any:
        return self.stack.highest.api_call("anycast", int(group), payload,
                                           size, priority)

    def macedon_collect(self, group: int, payload: Any, size: int,
                        priority: int = -1) -> Any:
        return self.stack.highest.api_call("collect", int(group), payload,
                                           size, priority)

    def macedon_create_group(self, group: int) -> Any:
        return self.stack.highest.api_call("create_group", int(group))

    def macedon_join(self, group: int) -> Any:
        return self.stack.highest.api_call("join", int(group))

    def macedon_leave(self, group: int) -> Any:
        return self.stack.highest.api_call("leave", int(group))

    # ------------------------------------------------------------------ the wire
    def _on_transport_deliver(self, src: int, payload: Any, size: int,
                              transport_name: str) -> None:
        self.failure_detector.heard_from(src)
        if isinstance(payload, _Heartbeat):
            if payload.kind == "ping":
                pong = _Heartbeat(kind="pong")
                self.transport_host.send(self.heartbeat_transport, src, pong, pong.size)
            return
        if not isinstance(payload, Message):
            # Unknown wire payload; count it in traces and drop.
            self.tracer.record(self.stack.lowest.TRACE, self.simulator.now,
                               self.address, "runtime", "error",
                               f"unknown wire payload from {src}")
            return
        message = payload
        message.source = src
        agent = self.stack.find_for_message(message.protocol) or self.stack.lowest
        if agent._trace_med:   # "message_recv" records at TraceLevel.MED
            agent.trace("message_recv", message.name, source=src, size=size)
        agent.receive_message(message)

    # -------------------------------------------------------------- failure path
    def _send_heartbeat(self, peer: int) -> None:
        ping = _Heartbeat(kind="ping")
        self.transport_host.send(self.heartbeat_transport, peer, ping, ping.size)

    def _on_peer_failure(self, peer: int) -> None:
        for agent in self.stack:
            agent.peer_failed(peer)

    # ------------------------------------------------------------------ helpers
    def agent(self, protocol: str) -> Agent:
        """The agent running *protocol* on this node."""
        return self.stack.agent(protocol)

    @property
    def highest_agent(self) -> Agent:
        return self.stack.highest

    @property
    def lowest_agent(self) -> Agent:
        return self.stack.lowest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MacedonNode(addr={self.address}, stack={self.stack.describe()})"
