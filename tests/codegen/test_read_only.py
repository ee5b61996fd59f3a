"""A ``locking read`` transition is proved read-only when the spec compiles.

The body, and every routine it reaches, may not write node state: no store
to a state variable, no store or delete through a subscript or attribute,
no write primitive, and no call the generator cannot classify as a read.
Each refusal is a :class:`CodegenError` at the ``.mac`` line where it occurs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.codegen import ProtocolRegistry, compile_mac, generate_source
from repro.dsl.errors import CodegenError

BUNDLED = ("ammo", "bullet", "chord", "nice", "overcast", "pastry",
           "randtree", "scribe", "splitstream")

SPEC = """protocol readonly
addressing ip
states { ready; }
transports { UDP U; }
messages { U poke { int g; int m; } }
neighbor_types { friends 4 { double delay; } }
state_variables { int count; map children; list lst; friends buddies; }
transitions {
    any API init { state_change("ready") }
    ready recv poke [locking read;] {
        %(body)s
    }
}
routines {
    def members(self, g):
        %(members)s

    def known(self, address):
        %(known)s
}
"""

GOOD = {"body": 'upcall_deliver(members(field("g")), 0, "poke")',
        "members": "return self.children.get(g, {}).keys()",
        "known": "return self.buddies.query(address)"}


def compile_with(**parts):
    return compile_mac(SPEC % {**GOOD, **parts}, "readonly.mac")


def line_of(text: str, **parts) -> int:
    source = SPEC % {**GOOD, **parts}
    return 1 + source[:source.index(text)].count("\n")


def refusal(**parts) -> CodegenError:
    with pytest.raises(CodegenError) as caught:
        compile_with(**parts)
    assert caught.value.filename == "readonly.mac"
    assert "recv poke [locking read]: " in str(caught.value)
    return caught.value


@pytest.mark.parametrize("body, text", [
    ('children.setdefault(field("g"), {})[field("m")] = True',
     "children.setdefault"),
    ('lst.append(field("g"))', "lst.append"),
    # a local aliases the state it stores through
    ('kids = children\n        del kids[field("g")]', "del kids"),
])
def test_container_mutation_in_a_read_body_is_refused(body, text):
    error = refusal(body=body)
    assert error.line == line_of(text, body=body)


def test_write_primitive_reached_through_routines_is_refused():
    parts = {"members": "return self.known(g)",
             "known": "self.neighbor_add(self.buddies, address)"}
    error = refusal(**parts)
    assert "calls write primitive neighbor_add " \
           "(in routine members → known)" in str(error)
    assert error.line == line_of("self.neighbor_add", **parts)


@pytest.mark.parametrize("body, text, complaint", [
    ('exec("count = 1")', "exec", "calls exec(), which the read-only check "
                                  "cannot classify"),
    ('sink = upcall_deliver\n        sink(None, 0)', "sink(None",
     "calls sink(), which the read-only check cannot classify"),
    # a call inside an f-string is checked too
    ('trace("poke", f"{lst.pop()}")', "f\"{lst", "calls lst.pop(), which is "
                                                 "not a read-only method"),
])
def test_unclassifiable_call_in_a_read_body_is_refused(body, text, complaint):
    error = refusal(body=body)
    assert complaint in str(error)
    assert error.line == line_of(text, body=body)


@pytest.mark.parametrize("protocol", BUNDLED)
def test_every_bundled_read_body_passes_and_a_write_in_it_does_not(protocol):
    """Every ``locking read`` body of the bundled specs passes the check as
    written, and is refused, at its new last line, once a write primitive
    is appended to it."""
    spec = ProtocolRegistry().load_spec(protocol)   # fresh: ours to edit
    generate_source(spec)
    transitions = list(spec.transitions)
    for index, decl in enumerate(transitions):
        if decl.locking != "read":
            continue
        first = next(line for line in decl.code.splitlines() if line.strip())
        indent = first[:len(first) - len(first.lstrip())]
        code = f"{decl.code.rstrip()}\n{indent}state_change(\"init\")\n"
        spec.transitions = [*transitions[:index], replace(decl, code=code),
                            *transitions[index + 1:]]
        with pytest.raises(CodegenError) as caught:
            generate_source(spec)
        assert "calls write primitive state_change" in str(caught.value)
        assert caught.value.line == decl.code_line + code.count("\n") - 1
