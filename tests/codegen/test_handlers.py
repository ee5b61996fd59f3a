"""The generated dispatcher: one handler per ``(kind, event)``.

* every generated transition takes exactly its event's parameters;
* the handler-selection oracle — over every bundled spec, every bucket and
  every state, the handler runs exactly the first declared transition whose
  state expression matches (``parse_state_expr(...).matches`` is this test's
  oracle; the runtime no longer calls it);
* parity of everything dispatch owes its callers: the MED ``"transition"``
  trace record (with the transition's ``locking``), the
  ``receive_message`` / ``send_msg`` override hooks the paper baselines use,
  a layered pair with a ``forward`` transition, and the refusal of a class
  that declares ``TRANSITIONS`` without generated handlers.
"""

from __future__ import annotations

import ast
import inspect
import re
import subprocess
from pathlib import Path

import pytest

from repro.codegen import ProtocolRegistry, compile_mac
from repro.network import NetworkEmulator, transit_stub_topology
from repro.dsl.errors import CodegenError
from repro.runtime import MacedonNode, Simulator, Tracer
from repro.runtime.agent import Agent, AgentError, TransitionSpec
from repro.runtime.handlers import UNHANDLED, event_params
from repro.runtime.messages import Message
from repro.runtime.stateexpr import parse_state_expr

BUNDLED = ("ammo", "bullet", "chord", "nice", "overcast", "pastry",
           "randtree", "scribe", "splitstream")


# ----------------------------------------------------------------- the oracle
def buckets(agent_class):
    grouped: dict = {}
    for spec in agent_class.TRANSITIONS:
        grouped.setdefault((spec.kind, spec.name), []).append(spec)
    return grouped


def recording_probe(agent_class):
    """A subclass whose every transition method only records its own name
    (handlers call through ``self``, so the overrides are what runs)."""
    def recorder(method):
        return lambda self, *event: self.ran.append(method)

    probe_class = type("Probe", (agent_class,), {
        spec.method: recorder(spec.method)
        for spec in agent_class.TRANSITIONS})
    probe = probe_class.__new__(probe_class)      # no node needed
    probe.key_space = agent_class.KEY_SPACE
    probe._trace_med = False
    return probe


@pytest.mark.parametrize("protocol", BUNDLED)
def test_handler_runs_the_first_matching_transition(protocol):
    agent_class = ProtocolRegistry().load_protocol(protocol)
    assert set(ProtocolRegistry().available()) == set(BUNDLED)
    probe = recording_probe(agent_class)
    types = {mtype.name: mtype for mtype in agent_class.MESSAGE_TYPES}
    checked = 0
    for (kind, event), specs in buckets(agent_class).items():
        handler = agent_class._handlers[kind][event]
        for state in agent_class.STATES + ("init",):
            expected = next(
                (spec.method for spec in specs
                 if parse_state_expr(spec.state_expr,
                                     agent_class.STATES).matches(state)), None)
            probe._state, probe.ran = state, []
            # A message for recv/forward, None for every other parameter.
            event_args = [None] * len(event_params(kind, event))
            if kind in ("recv", "forward"):
                event_args[0] = Message(types[event])
            handled = handler(probe, *event_args)
            assert probe.ran == ([expected] if expected else []), \
                (kind, event, state)
            assert (handled is not UNHANDLED) is (expected is not None)
            checked += 1
    assert checked == len(buckets(agent_class)) * (len(agent_class.STATES) + 1)


@pytest.mark.parametrize("protocol, base", [
    *((name, None) for name in BUNDLED), ("scribe", "chord")])
def test_transitions_take_their_events_parameters(protocol, base):
    registry = ProtocolRegistry()
    agent_class = registry.load_protocol(protocol, base=base)
    for spec in agent_class.TRANSITIONS:
        params = list(inspect.signature(getattr(agent_class, spec.method))
                      .parameters)
        # Unmangle __msg (a private name inside the generated class body).
        params = [re.sub(r"^_[A-Za-z0-9]+(__msg)$", r"\1", name)
                  for name in params]
        assert params == ["self", *event_params(spec.kind, spec.name)], \
            spec.method
    # No private name but the message parameter in the generated module
    # (a dunder such as a message class's ``__slots__`` is not private).
    nodes = list(ast.walk(ast.parse(registry.generated_source(protocol,
                                                               base=base))))
    names = {node.id for node in nodes if isinstance(node, ast.Name)} \
        | {node.arg for node in nodes if isinstance(node, ast.arg)}
    assert {name for name in names if name.startswith("__")
            and not name.endswith("__")} <= {"__msg"}


def test_stale_or_missing_transition_is_refused_at_class_creation():
    base = compile_mac(PARITY, "parity.mac")
    with pytest.raises(AgentError, match="reached from handlers"):
        # TRANSITIONS extended behind the generated handlers' back.
        type("Stale", (base,), {
            "extra": lambda self, message: None,
            "TRANSITIONS": base.TRANSITIONS + (
                TransitionSpec("recv", "ping", "init", "extra"),)})
    with pytest.raises(AgentError, match="missing"):
        type("Missing", (Agent,), {
            "TRANSITIONS": (TransitionSpec("timer", "t", "any", "nowhere"),)})


# ---------------------------------------------------------------- tiny parity
PARITY = """
protocol parity
addressing ip
trace_med
states { ready; busy; }
transports { UDP U; }
messages { U ping { int n; } U pong { int n; } }
state_variables { int pings; int pongs; int ticks; timer tick 1.0; }
transitions {
    any API init {
        state_change("ready")
        timer_sched(tick)
    }
    ready recv ping {
        pings = pings + 1
        send_msg("pong", source, n=field("n"))
    }
    busy recv ping { pings = pings + 100 }
    !(init) recv pong [locking read;] { upcall_deliver(msg, 0, "pong") }
    ready API route [locking read;] { send_msg("ping", dest_key, n=payload_size) }
    ready|busy timer tick [locking read;] { upcall_deliver(None, 0, "tick") }
}
"""


def build(agent_class, n=2, **node_kwargs):
    simulator = Simulator(seed=3)
    emulator = NetworkEmulator(simulator, transit_stub_topology(max(n, 2), seed=3))
    tracer = Tracer()
    nodes = [MacedonNode(simulator, emulator, [agent_class], tracer=tracer,
                         **node_kwargs) for _ in range(n)]
    for node in nodes:
        node.macedon_init(nodes[0].address)
    return simulator, tracer, nodes


def test_transition_trace_parity():
    simulator, tracer, (a, b) = build(compile_mac(PARITY, "parity.mac"))
    # The app answers the first pong by routing again from inside the
    # read-locked pong transition: a nested transition on a.
    again = []
    a.macedon_register_handlers(deliver=lambda payload, size, mtype: (
        mtype == "pong" and not again
        and (again.append(1), a.macedon_route(b.address, None, 2))))
    a.macedon_route(b.address, None, 1)
    simulator.run(until=0.9)            # before the first tick
    assert b.lowest_agent.pings == 2
    records = [(r.node, r.detail, r.data) for r in tracer.records("transition")]
    assert records == [
        (a.address, "api:init", {"state": "init", "locking": "write"}),
        (b.address, "api:init", {"state": "init", "locking": "write"}),
        (a.address, "api:route", {"state": "ready", "locking": "read"}),
        (b.address, "recv:ping", {"state": "ready", "locking": "write"}),
        (a.address, "recv:pong", {"state": "ready", "locking": "read"}),
        (a.address, "api:route", {"state": "ready", "locking": "read"}),
        (b.address, "recv:ping", {"state": "ready", "locking": "write"}),
        (a.address, "recv:pong", {"state": "ready", "locking": "read"}),
    ]
    simulator.run(until=1.5)            # the read-locked tick, on both
    ticks = [(r.node, r.data) for r in tracer.records("transition")
             if r.detail == "timer:tick"]
    assert ticks == [(a.address, {"state": "ready", "locking": "read"}),
                     (b.address, {"state": "ready", "locking": "read"})]


def test_write_primitive_in_read_transition_is_a_violation():
    # PARITY plus a read-locked transition that counts into state.
    poke = PARITY.replace("U pong { int n; } }",
                          "U pong { int n; } U poke { } }").replace(
        "\n}\n", "\n    ready recv poke [locking read;] { pongs = pongs + 1 }"
        "\n}\n")
    with pytest.raises(CodegenError, match=r"recv poke \[locking read\]: "
                                           r"assigns state variable 'pongs'"
                       ) as caught:
        compile_mac(poke, "parity.mac")
    lines = poke.splitlines()
    assert lines[caught.value.line - 1].strip().startswith("ready recv poke")


def test_baseline_style_overrides_see_every_message():
    base = compile_mac(PARITY, "parity.mac")

    class Hooked(base):
        """lsd-style ``receive_message`` and FreePastry-style ``send_msg``."""

        def __init__(self, node):
            super().__init__(node)
            self.received, self.sent = [], []

        def receive_message(self, message):
            self.received.append((message.name, dict(message.fields)))
            return super().receive_message(message)

        def send_msg(self, message, dest, *, priority=-1, tag=None):
            self.sent.append((message.name, dict(message.fields)))
            super().send_msg(message, dest, priority=priority, tag=tag)

    simulator, _, (a, b) = build(Hooked)
    a.macedon_route(b.address, None, 5)
    simulator.run(until=0.9)
    assert a.lowest_agent.sent == [("ping", {"n": 5})]
    assert b.lowest_agent.received == [("ping", {"n": 5})]
    assert b.lowest_agent.sent == [("pong", {"n": 5})]
    assert a.lowest_agent.received == [("pong", {"n": 5})]


# ------------------------------------------------------------- a layered pair
LOWER = """
protocol lower
addressing ip
states { up; }
transports { UDP U; }
messages { U hop { } }
transitions {
    any API init { state_change("up") }
    up API route [locking read;] {
        # Offer the payload to the layer above (forward) before it leaves.
        allow, _ = upcall_forward(payload, payload_size, "hop", dest_key, None)
        result = allow
        if allow:
            send_msg("hop", dest_key, payload=payload, payload_size=payload_size)
    }
    up recv hop [locking read;] {
        upcall_deliver(payload, payload_size, "hop", source=source)
    }
}
"""

UPPER = """
protocol upper uses lower
addressing ip
states { up; }
messages { note { int v; } }
state_variables { int total; list offered; }
transitions {
    any API init { state_change("up") }
    up forward note {
        # Sees every note on its way out and quashes the odd ones.
        offered.append((field("v"), next_hop))
        quash = field("v") % 2 == 1
    }
    init recv note { raise AssertionError("scoped to init, dispatched in up") }
    up recv note {
        assert source_key is not None and msg.name == "note"
        total = total + field("v")
    }
}
"""


def test_layered_forward_quash_and_state_scoped_recv():
    lower, upper = (compile_mac(LOWER, "lower.mac"),
                    compile_mac(UPPER, "upper.mac"))
    simulator = Simulator(seed=4)
    emulator = NetworkEmulator(simulator, transit_stub_topology(2, seed=4))
    a, b = (MacedonNode(simulator, emulator, [lower, upper]) for _ in range(2))
    a.macedon_init(a.address)
    b.macedon_init(a.address)
    sender = a.agent("upper")
    for v in (2, 3, 4):
        sender.route_msg(sender.build_message("note", v=v), b.address)
    simulator.run(until=1.0)
    # The forward transition saw all three and quashed the odd one.
    assert sender.offered == [(2, b.address), (3, b.address), (4, b.address)]
    assert b.agent("upper").total == 6
    # The lower layer's route transition writes `result` back: whether the
    # layer above let the payload out, which macedon_route returns.
    for v, allowed in ((5, False), (6, True)):
        note = sender.wrap_msg(sender.build_message("note", v=v))
        assert a.macedon_route(b.address, note, note.size) is allowed


def test_transitions_without_handlers_are_refused_at_class_creation():
    """Only the code generator writes handlers: a class that declares
    ``TRANSITIONS`` by hand gets no emitted dispatcher, it gets told."""
    with pytest.raises(AgentError, match=r"'t_init' is missing or reached "
                                         r"from handlers \[\]"):
        type("ByHand", (Agent,), {
            "PROTOCOL": "byhand",
            "TRANSITIONS": (TransitionSpec("api", "init", "any", "t_init"),),
            "t_init": lambda self, bootstrap: None})


def test_no_hand_written_transition_table_under_src():
    """Protocols are ``.mac`` specifications: a ``TRANSITIONS`` table or a
    ``TransitionSpec(...)`` in ``src/`` belongs to the runtime's declaration
    of them or to the generator that writes them, nowhere else."""
    root = Path(__file__).resolve().parents[2]
    tracked = subprocess.run(
        ["git", "ls-files", "src/*.py"], cwd=root, check=True,
        capture_output=True, text=True).stdout.split()
    assert len(tracked) > 50
    offenders = [
        name for name in tracked
        if name != "src/repro/runtime/agent.py"
        and not name.startswith("src/repro/codegen/")
        and re.search(r"TransitionSpec\(|TRANSITIONS =",
                      (root / name).read_text(encoding="utf-8"))]
    assert offenders == []
