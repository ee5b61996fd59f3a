"""Registry error paths and base-override cache hygiene."""

from __future__ import annotations

import sys

import pytest

from repro.codegen import ProtocolRegistry, compile_source, get_registry
from repro.dsl.errors import CodegenError, MacError
from repro.eval import Stack
from repro.runtime.agent import Agent


# ------------------------------------------------------------ missing specs
def test_unknown_spec_suggests_close_match():
    registry = ProtocolRegistry()
    with pytest.raises(MacError) as excinfo:
        registry.load_spec("chrod")
    message = str(excinfo.value)
    assert "no specification named 'chrod'" in message
    assert "did you mean" in message
    assert "chord" in message
    # The diagnosis also tells the user where specs live and how to add one.
    assert "available specs" in message
    assert str(registry.specs_dir) in message


def test_unknown_spec_without_close_match_lists_available():
    registry = ProtocolRegistry()
    with pytest.raises(MacError) as excinfo:
        registry.load_spec("zzzzzz")
    message = str(excinfo.value)
    assert "did you mean" not in message
    assert "available specs" in message


def test_a_misspelt_baseline_is_diagnosed():
    with pytest.raises(MacError) as excinfo:
        Stack("lsd_chrod").resolve()
    message = str(excinfo.value)
    assert "did you mean: lsd_chord?" in message
    assert "baseline stacks: freepastry, lsd_chord" in message


def test_an_empty_specs_directory_still_offers_the_baselines(tmp_path):
    with pytest.raises(MacError) as excinfo:
        ProtocolRegistry(specs_dir=tmp_path).load_stack("freepasty")
    message = str(excinfo.value)
    assert "contains no .mac files" in message
    assert "did you mean: freepastry?" in message


def test_missing_specs_directory_diagnosed(tmp_path):
    registry = ProtocolRegistry(specs_dir=tmp_path / "nowhere")
    with pytest.raises(MacError, match="specs directory does not exist"):
        registry.load_spec("chord")


def test_empty_specs_directory_diagnosed(tmp_path):
    registry = ProtocolRegistry(specs_dir=tmp_path)
    with pytest.raises(MacError, match="contains no .mac files"):
        registry.load_spec("chord")


# ----------------------------------------------------------- compile_source
def test_compile_source_rejects_missing_agent_class():
    with pytest.raises(CodegenError, match="did not define AGENT_CLASS"):
        compile_source("x = 1\n", "repro._generated.test_no_agent")


def test_compile_source_rejects_non_agent_class():
    source = "class NotAnAgent:\n    pass\nAGENT_CLASS = NotAnAgent\n"
    with pytest.raises(CodegenError, match="did not define AGENT_CLASS"):
        compile_source(source, "repro._generated.test_bad_agent")


def test_compile_source_rejects_syntax_errors():
    with pytest.raises(CodegenError, match="does not compile"):
        compile_source("def broken(:\n", "repro._generated.test_syntax")


# ------------------------------------------------- base-override cache keys
def test_override_does_not_poison_unoverridden_class_cache():
    """Loading Scribe-over-Chord must leave plain Scribe untouched."""
    registry = get_registry()
    plain_before = registry.load_protocol("scribe")
    overridden = Stack("scribe", base="chord").resolve()[-1]
    plain_after = registry.load_protocol("scribe")
    assert plain_after is plain_before
    assert plain_after.BASE_PROTOCOL == "pastry"
    assert overridden.BASE_PROTOCOL == "chord"
    assert overridden is not plain_after
    # The cached spec still declares the bundled base.
    assert registry.load_spec("scribe").base == "pastry"


def test_override_compiles_write_nothing_to_sys_modules():
    """Compiling is pure: two fresh registries each build their own
    Scribe-over-Chord class, and neither leaves a module behind in (or
    overwrites one of) the process-global ``sys.modules``."""
    before = dict(sys.modules)
    first, second = (ProtocolRegistry().load_protocol("scribe", base="chord")
                     for _ in range(2))
    assert dict(sys.modules) == before
    assert first is not second
    for agent_class in (first, second):
        assert agent_class.__name__ == "ScribeAgentOverChord"
        assert agent_class.BASE_PROTOCOL == "chord"


def test_override_variants_coexist_and_cache_separately():
    registry = ProtocolRegistry()
    over_chord = registry.load_protocol("scribe", base="chord")
    over_chord_again = registry.load_protocol("scribe", base="chord")
    plain = registry.load_protocol("scribe")
    assert over_chord is over_chord_again
    assert issubclass(over_chord, Agent)
    assert over_chord.PROTOCOL == plain.PROTOCOL == "scribe"
    assert over_chord.__name__ == "ScribeAgentOverChord"


def test_the_declared_base_as_an_override_is_the_bundled_stack():
    """``Stack("scribe", base="pastry")`` names Scribe's own base: the
    classes are those of ``load_stack("scribe")``, and no second Scribe is
    compiled beside them."""
    registry = get_registry()
    assert Stack("scribe", base="pastry").resolve() == \
        registry.load_stack("scribe")
    assert Stack("splitstream", base="pastry").resolve()[:2] == \
        registry.load_stack("scribe")
    assert Stack("scribe", base="chord").resolve()[-1].__name__ == \
        "ScribeAgentOverChord"
    assert {key for key in registry._class_cache if key[0] == "scribe"} == \
        {("scribe", None), ("scribe", "chord")}


def test_a_base_on_a_one_layer_stack_raises():
    for name in ("chord", "lsd_chord"):
        with pytest.raises(MacError, match="uses no lower layer"):
            Stack(name, base="pastry").resolve()


def test_relayering_into_a_cycle_raises():
    with pytest.raises(MacError, match="layering cycle: 'splitstream' runs "
                                       "'scribe' already"):
        Stack("scribe", base="splitstream").resolve()


def test_the_baselines_are_registry_stack_names():
    from repro.baselines import FreePastryAgent, LsdChordAgent

    assert Stack("lsd_chord").resolve() == [LsdChordAgent()]
    assert Stack("freepastry").resolve() == [FreePastryAgent()]
