"""Literal message and field names are checked when the spec is compiled,
against its ``messages { }`` block — not when the transition first fires."""

from __future__ import annotations

import pytest

from repro.codegen import ProtocolRegistry, compile_mac, generate_source
from repro.dsl import load_spec_text
from repro.dsl.errors import CodegenError

SPEC = """protocol checked
addressing ip
states { ready; }
transports { UDP U; }
messages {
    U ping { int n; }
    U pong { int n; int echo; }
}
state_variables { int seen; }
transitions {
    any API init { state_change("ready") }
    ready recv ping {
        seen = seen + field("n")
        %(recv_ping)s
    }
    ready recv pong { seen = field("echo") }
}
routines {
    def reply(self, dest):
        %(routine)s
}
"""

GOOD = {"recv_ping": 'send_msg("pong", source, n=1, echo=field("n"))',
        "routine": 'self.send_msg("pong", dest, n=0, priority=0, tag="t")'}


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
    # alone by the generator; the transition keeps its context object, whose
    # field() checks the name when the transition fires.
    text = SPEC % {**GOOD, "recv_ping":
                   'name = "po" + "ng"\n'
                   '        send_msg(name, source, **{"n": field("n" + "")})'}
    source = generate_source(load_spec_text(text, filename="checked.mac"))
    assert "self._t01_recv_ping(self._message_ctx(message))" in source
    assert '__ctx.field("n" + "")' in source
    compile_mac(text, "checked.mac")


def test_all_bundled_specs_compile_unchanged():
    registry = ProtocolRegistry()          # fresh: nothing cached
    assert len(registry.available()) == 9
    for name in registry.available():
        registry.load_protocol(name)
