"""One generated class per ``messages { }`` row.

* every row of the bundled specs (and Scribe re-based on Chord) is a slotted
  class whose ``type`` is the declared ``MessageType``;
* generated sends construct that class: no literal-name send and no field
  dict survives in the generated text, and the text compiles with every
  warning an error;
* what stays a run-time check: a computed message name, ``field(expr)`` on
  an undeclared field, and the generic ``Message(type=t, fields=…)``;
* a routed message reaches each agent as its own copy.
"""

from __future__ import annotations

import re
import warnings

import pytest

from repro.codegen import ProtocolRegistry, compile_mac
from repro.runtime.messages import (Message, MessageError, emit_codec,
                                    message_class_name)

SPEC = """protocol checked
addressing ip
states { ready; }
transports { UDP U; }
messages { U ping { int n; } U pong { int n; int echo; } }
state_variables { int seen; }
transitions {
    any API init { state_change("ready") }
    ready recv ping {
        seen = seen + field("n")
        %s
    }
}
"""

STACKS = [(name, None) for name in ProtocolRegistry().available()] \
    + [("scribe", "chord")]


@pytest.mark.parametrize("protocol, base", STACKS)
def test_every_message_row_is_a_slotted_class_of_its_type(protocol, base):
    agent_class = ProtocolRegistry().load_protocol(protocol, base=base)
    spec = ProtocolRegistry().load_spec(protocol)
    assert [t.name for t in agent_class.MESSAGE_TYPES] == \
        [row.name for row in spec.messages]
    for message_type in agent_class.MESSAGE_TYPES:
        cls = message_type.cls
        assert cls.__name__ == message_class_name(message_type.name)
        assert cls.type is message_type and issubclass(cls, Message)
        assert cls.__slots__ == tuple(f.name for f in message_type.fields)
        assert (cls.fixed_size, cls.is_fixed_size) == \
            (message_type.fixed_size, message_type.is_fixed_size)
        message = cls(payload_size=7)
        assert not hasattr(message, "__dict__")
        assert type(message).type is message_type
        assert dict(message.fields) == dict.fromkeys(cls.__slots__)
        assert Message(message_type, {}, payload_size=7).size == message.size


@pytest.mark.parametrize("protocol, base", STACKS)
def test_generated_modules_compile_with_warnings_as_errors(protocol, base):
    """``python -W error -m compileall`` never sees a generated module or a
    compiled codec; a bad escape or a SyntaxWarning in their text would
    otherwise only print."""
    registry = ProtocolRegistry()
    source = registry.generated_source(protocol, base=base)
    agent_class = registry.load_protocol(protocol, base=base)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, f"<generated {protocol}>", "exec")
        for message_type in agent_class.MESSAGE_TYPES:
            compile(emit_codec(protocol, message_type), "<codec>", "exec")


@pytest.mark.parametrize("protocol", ["chord", "scribe"])
def test_generated_sends_construct_their_class(protocol):
    source = ProtocolRegistry().generated_source(protocol)
    assert "fields.get" not in source
    assert not re.search(r"\b(send_msg|route_msg|routeip_msg)\(\s*['\"]",
                         source)
    assert re.search(r"\.(send|route|routeip)_msg\([A-Z][A-Za-z]*Msg\(", source)


def _probe(agent_class):
    probe = agent_class.__new__(agent_class)   # no node needed
    probe.seen = 0
    return probe


def test_computed_names_stay_run_time_message_errors():
    text = SPEC % 'name = "pu" + "ng"\n        send_msg(name, source, n=1)'
    agent_class = compile_mac(text, "checked.mac")
    ping = {t.name: t for t in agent_class.MESSAGE_TYPES}["ping"]
    with pytest.raises(MessageError, match="unknown message type 'pung'"):
        agent_class._t01_recv_ping(_probe(agent_class), ping.cls(n=1))
    text = SPEC % 'send_msg("pong", source, **{"n": 1, "nope": 2})'
    agent_class = compile_mac(text, "checked.mac")
    ping = {t.name: t for t in agent_class.MESSAGE_TYPES}["ping"]
    with pytest.raises(MessageError, match=r"no field\(s\) \['nope'\]"):
        agent_class._t01_recv_ping(_probe(agent_class), ping.cls(n=1))
    text = SPEC % 'seen = field("n" + "o")'
    agent_class = compile_mac(text, "checked.mac")
    with pytest.raises(MessageError, match="message 'ping' has no field 'no'"):
        agent_class._t01_recv_ping(_probe(agent_class), ping.cls(n=1))
    with pytest.raises(MessageError, match=r"no field\(s\) \['nope'\]"):
        Message(type=ping, fields={"nope": 1})


def test_a_routed_message_reaches_each_agent_as_its_own_copy():
    agent_class = compile_mac(SPEC % 'send_msg("pong", source, n=1)',
                              "checked.mac")
    pong = {t.name: t for t in agent_class.MESSAGE_TYPES}["pong"]
    routed = pong.cls(n=3, echo=4, payload=b"x", payload_size=9)
    routed.protocol, routed.routed = agent_class.PROTOCOL, True
    received = []
    first, second = (_probe(agent_class) for _ in range(2))
    for agent, source in ((first, 11), (second, 22)):
        agent.receive_message = received.append
        agent.handle_lower_deliver(routed, routed.size, "hop", source=source)
    one, two = received
    assert one is not two and routed not in (one, two)
    assert (one.source, two.source, routed.source) == (11, 22, None)
    assert one.fields == two.fields == {"n": 3, "echo": 4}
    assert one.payload is two.payload is routed.payload
    one.n = 99
    assert two.n == routed.n == 3
