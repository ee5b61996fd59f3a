"""Tests for code generation and the protocol registry."""

from __future__ import annotations

import pytest

from repro.codegen import (
    ProtocolRegistry,
    class_name_for,
    compile_mac,
    generate_source,
    get_registry,
)
from repro.dsl import parse_mac, validate
from repro.dsl.errors import MacError
from repro.eval import Stack
from repro.runtime.agent import Agent
from repro.runtime.tracing import TraceLevel

SIMPLE = """
protocol tiny
addressing hash
trace_high
constants { LIMIT = 2; }
states { ready; }
neighbor_types { peer LIMIT { double delay; } }
transports { UDP BEST_EFFORT; }
messages { BEST_EFFORT hello { int x; } }
state_variables { peer buddies; int hits; timer tick 1.0; map notes; }
transitions {
    any API init { state_change("ready") }
    ready recv hello { hits = hits + 1 }
    ready timer tick [locking read;] { pass }
}
routines {
    def double_hits(self):
        return self.hits * 2
}
"""


def test_class_name_for():
    assert class_name_for("overcast") == "OvercastAgent"
    assert class_name_for("split_stream") == "SplitStreamAgent"


def test_generated_source_structure():
    spec = parse_mac(SIMPLE)
    validate(spec)
    source = generate_source(spec)
    assert "class TinyAgent(Agent):" in source
    assert "PROTOCOL = 'tiny'" in source
    assert "TRACE = TraceLevel.HIGH" in source
    assert "MessageType('hello'" in source
    assert "StateVarSpec(name='buddies'" in source
    assert "TransitionSpec(kind='api', name='init'" in source
    assert "def double_hits(self):" in source
    assert "AGENT_CLASS = TinyAgent" in source
    # Generated source is valid Python.
    compile(source, "<generated>", "exec")


def test_compiled_class_attributes():
    agent_class = compile_mac(SIMPLE, "tiny.mac")
    assert issubclass(agent_class, Agent)
    assert agent_class.PROTOCOL == "tiny"
    assert agent_class.ADDRESSING == "hash"
    assert agent_class.TRACE == TraceLevel.HIGH
    assert agent_class.CONSTANTS == {"LIMIT": 2}
    assert agent_class.NEIGHBOR_TYPES["peer"].max_size == 2
    assert len(agent_class.TRANSITIONS) == 3
    assert agent_class.TRANSITIONS[2].locking == "read"


def test_generated_handlers_match_transitions():
    # The emitted handlers must cover exactly the declared (kind, name)
    # events, and each must reach exactly its own bucket's transition
    # methods, in declaration order — they are what the runtime dispatches
    # deliveries, timer fires and API calls through.
    agent_class = compile_mac(SIMPLE, "tiny.mac")
    handlers = agent_class._handlers
    assert {(kind, name) for kind, events in handlers.items()
            for name in events} == {("api", "init"), ("recv", "hello"),
                                    ("timer", "tick")}
    for kind, events in handlers.items():
        for name, handler in events.items():
            assert handler is getattr(agent_class, f"_handle_{kind}_{name}")
            assert [t.method for t in agent_class.TRANSITIONS
                    if t.method in handler.__code__.co_names] == [
                t.method for t in agent_class.TRANSITIONS
                if (t.kind, t.name) == (kind, name)]


def test_registry_lists_all_bundled_protocols():
    registry = get_registry()
    available = registry.available()
    for name in ("chord", "pastry", "scribe", "splitstream", "overcast",
                 "nice", "bullet", "ammo", "randtree"):
        assert name in available


def test_registry_unknown_protocol():
    registry = ProtocolRegistry()
    with pytest.raises(MacError):
        registry.load_spec("does_not_exist")


def test_load_protocol_caches_classes():
    registry = get_registry()
    assert registry.load_protocol("randtree") is registry.load_protocol("randtree")


def test_load_stack_resolution_order():
    stack = get_registry().load_stack("splitstream")
    assert [cls.PROTOCOL for cls in stack] == ["pastry", "scribe", "splitstream"]
    bullet = get_registry().load_stack("bullet")
    assert [cls.PROTOCOL for cls in bullet] == ["randtree", "bullet"]


def test_load_stack_with_base_override():
    stack = Stack("scribe", base="chord").resolve()
    assert [cls.PROTOCOL for cls in stack] == ["chord", "scribe"]
    assert stack[1].BASE_PROTOCOL == "chord"


def test_generated_source_written_to_disk(tmp_path):
    registry = get_registry()
    path = registry.write_generated("randtree", tmp_path)
    assert path.exists()
    text = path.read_text()
    assert "class RandtreeAgent(Agent):" in text


def test_lines_of_code_reporting():
    loc = get_registry().lines_of_code()
    assert all(count > 0 for count in loc.values())
    assert loc["splitstream"] < loc["chord"]


def test_compile_mac_rejects_invalid():
    with pytest.raises(Exception):
        compile_mac("protocol bad states { a; a; }")
