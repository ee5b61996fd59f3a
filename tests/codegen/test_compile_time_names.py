"""Literal message and field names, and the event-context names a body
uses, are checked when the spec is compiled — against its ``messages { }``
block and its event's parameters — not when the transition first fires."""

from __future__ import annotations

import inspect

import pytest

from repro.codegen import ProtocolRegistry, compile_mac, generate_source
from repro.dsl import parse_mac, validate
from repro.dsl.errors import CodegenError
from repro.runtime.messages import Message, MessageError

SPEC = """protocol checked
addressing ip
states { ready; }
transports { UDP U; }
messages {
    U ping { int n; }
    U pong { int n; int echo; }
}
state_variables { int seen; timer tick 1.0; }
transitions {
    any API init { state_change("ready") }
    ready recv ping {
        seen = seen + field("n")
        %(recv_ping)s
    }
    ready recv pong { seen = field("echo") }
    ready API multicast { %(api_multicast)s }
    ready timer tick { %(timer_tick)s }
}
routines {
    def reply(self, dest):
        %(routine)s
}
"""

GOOD = {"recv_ping": 'send_msg("pong", source, n=1, echo=field("n"))',
        "routine": 'self.send_msg("pong", dest, n=0, priority=0, tag="t")',
        "api_multicast": 'send_msg("ping", group, n=payload_size)',
        "timer_tick": "seen = seen + 1"}


def compile_with(**parts):
    return compile_mac(SPEC % {**GOOD, **parts}, "checked.mac")


def line_of(text: str, **parts) -> int:
    source = SPEC % {**GOOD, **parts}
    return 1 + source[:source.index(text)].count("\n")


def test_good_spec_compiles():
    compile_with()


@pytest.mark.parametrize("parts, text, complaint", [
    # unknown field read from the received message
    ({"recv_ping": 'seen = field("m")'}, 'field("m")',
     "field: message 'ping' has no field(s) ['m']"),
    # unknown message in a send
    ({"recv_ping": 'send_msg("pung", source, n=1)'}, '"pung"',
     "send_msg: unknown message type 'pung'"),
    # undeclared field passed to a send
    ({"recv_ping": 'route_msg("pong", 7, n=1,\n            ecco=2)'},
     'route_msg("pong"', "route_msg: message 'pong' has no field(s) ['ecco']"),
    # the same checks reach routines, where the primitive is on self
    ({"routine": 'self.wrap_msg("pong", nn=1)'}, 'self.wrap_msg',
     "wrap_msg: message 'pong' has no field(s) ['nn']"),
    # a context name another event binds: multicast has a group, no dest_key
    ({"api_multicast": 'send_msg("ping", dest_key, n=1)'}, 'dest_key',
     "api multicast: 'dest_key' is not bound by this event"),
    # a timer binds nothing
    ({"timer_tick": "seen = source"}, "seen = source",
     "timer tick: 'source' is not bound by this event"),
    # only a forward transition writes quash back
    ({"recv_ping": "quash = True"}, "quash",
     "recv ping: 'quash' is not bound by this event"),
    # a return would skip the write-back
    ({"recv_ping": "return"}, "return",
     "recv ping: a transition body must not return"),
])
def test_bad_literal_is_a_codegen_error_with_file_and_line(parts, text,
                                                           complaint):
    with pytest.raises(CodegenError) as caught:
        compile_with(**parts)
    assert complaint in str(caught.value)
    assert caught.value.filename == "checked.mac"
    assert caught.value.line == line_of(text, **parts)
    assert str(caught.value).startswith(f"checked.mac:{caught.value.line}:")


def test_non_literal_names_stay_a_runtime_check():
    # A computed message name, a computed field() name and **fields are left
    # alone by the generator; the transition still takes the message, and its
    # field is the message's own checked accessor, which refuses an unknown
    # name when the transition fires.
    text = SPEC % {**GOOD, "recv_ping":
                   'field("m" + "")\n'
                   '        name = "po" + "ng"\n'
                   '        send_msg(name, source, **{"n": field("n" + "")})'}
    spec = parse_mac(text, filename="checked.mac")
    validate(spec)
    generate_source(spec)
    agent_class = compile_mac(text, "checked.mac")
    transition = agent_class._t01_recv_ping
    assert list(inspect.signature(transition).parameters) == [
        "self", "_CheckedAgent__msg"]          # __msg, mangled in the class
    probe = agent_class.__new__(agent_class)    # no node needed
    probe.seen = 0
    ping = {mtype.name: mtype for mtype in agent_class.MESSAGE_TYPES}["ping"]
    with pytest.raises(MessageError, match="message 'ping' has no field 'm'"):
        transition(probe, Message(ping, {"n": 1}))
    assert probe.seen == 1


def test_all_bundled_specs_compile_unchanged():
    registry = ProtocolRegistry()          # fresh: no class cached
    assert len(registry.available()) == 9
    for name in registry.available():
        registry.load_protocol(name)
