"""Tests for the action-code rewriter."""

from __future__ import annotations

import pytest

from repro.codegen.generator import normalize_action_code, rewrite_action_code
from repro.dsl.errors import CodegenError

SELF_NAMES = {"neighbor_add", "state_change", "papa", "counter", "MAX"}


def test_primitives_and_state_vars_get_self_prefix():
    out = rewrite_action_code("neighbor_add(papa, source)\nstate_change('joined')",
                              SELF_NAMES)
    assert "self.neighbor_add(self.papa, source)" in out
    assert "self.state_change('joined')" in out


def test_assignment_to_state_variable_rewritten():
    out = rewrite_action_code("counter = counter + 1", SELF_NAMES)
    assert out.strip() == "self.counter = self.counter + 1"


def test_keyword_arguments_not_rewritten():
    out = rewrite_action_code("send(x, counter=1, papa=2)", SELF_NAMES | {"send"})
    assert "counter=1" in out
    assert "papa=2" in out
    assert "self.send(" in out


def test_attribute_access_not_rewritten():
    out = rewrite_action_code("obj.counter = papa.delay", SELF_NAMES)
    assert "obj.counter" in out
    assert "self.papa.delay" in out


def test_context_names_stay_bare():
    # Event-context names are the transition's parameters and locals.
    code = "if field('x') == source:\n    quash = True"
    assert rewrite_action_code(code, SELF_NAMES) == code


def test_strings_and_comments_untouched():
    code = 's = "papa lives here"  # counter in a comment'
    out = rewrite_action_code(code, SELF_NAMES)
    assert '"papa lives here"' in out
    assert "# counter in a comment" in out


def test_locals_untouched():
    out = rewrite_action_code("temp = 1\ntemp = temp + 1", SELF_NAMES)
    assert "self" not in out


def test_keywords_never_rewritten():
    out = rewrite_action_code("for papa in [1]:\n    pass", SELF_NAMES)
    assert "for self.papa in" in out  # loop var is a state name: rewritten by design
    assert "pass" in out


def test_indentation_preserved():
    code = "if counter:\n    if papa:\n        state_change('x')"
    out = rewrite_action_code(code, SELF_NAMES)
    assert "        self.state_change('x')" in out


def test_empty_body_becomes_pass():
    assert normalize_action_code("   \n  ") == "pass"
    assert rewrite_action_code("", SELF_NAMES) == "pass"


def test_untokenizable_body_raises():
    with pytest.raises(CodegenError):
        rewrite_action_code("def broken(:\n", SELF_NAMES, context="test")


def test_columns_are_right_behind_non_ascii_text():
    # The parser counts columns in UTF-8 bytes; the splice must too.
    out = rewrite_action_code('note = "é — ü"; counter = papa  # ünïcode', SELF_NAMES)
    assert out == 'note = "é — ü"; self.counter = self.papa  # ünïcode'


def test_f_strings_are_strings():
    out = rewrite_action_code('debug(f"{counter} of {MAX}", counter)',
                              SELF_NAMES | {"debug"})
    assert out == 'self.debug(f"{counter} of {MAX}", self.counter)'


def test_unparseable_body_names_its_mac_context():
    with pytest.raises(CodegenError, match=r"cannot parse action code \(x.mac line 7"):
        rewrite_action_code("if counter\n    pass", SELF_NAMES,
                            context="x.mac line 7: any recv ping")
