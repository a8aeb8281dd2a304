"""Pass-contract enforcement: check modes, CheckError blame, clean corpora."""

from pathlib import Path

import pytest

from repro.check import CheckError
from repro.errors import PipelineError
from repro.ir.parser import parse_function, parse_module
from repro.oracle.regressions import load_regressions
from repro.pipeline import Pipeline, PipelineSpec
from repro.pipeline.passes import Pass, _PASS_REGISTRY, register_pass

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples" / "ir").glob("*.ir"))
TARGETS = ("st231", "armv7-a8", "jikesrvm-ia32")


def test_default_check_mode_is_off():
    assert PipelineSpec().check == "off"
    assert Pipeline.from_spec("NL", target="st231").spec.check == "off"


def test_unknown_check_mode_rejected():
    with pytest.raises(PipelineError, match="unknown check mode 'sometimes'"):
        PipelineSpec(check="sometimes").validate()


def test_check_off_never_invokes_a_checker(diamond_function, monkeypatch):
    import repro.pipeline.engine as engine

    calls = []
    original = engine.check_pipeline_context

    def counting(context, **kwargs):
        calls.append(kwargs.get("stage"))
        return original(context, **kwargs)

    monkeypatch.setattr(engine, "check_pipeline_context", counting)
    Pipeline.from_spec("NL", target="st231", registers=4).run(diamond_function)
    assert calls == []
    Pipeline.from_spec("NL", target="st231", registers=4, check="boundaries").run(
        diamond_function
    )
    assert calls != []


def test_boundaries_rejects_statically_invalid_input():
    bad = parse_function("func @bad(%a) {\nentry:\n  %x = add %a, %ghost\n  ret %x\n}")
    pipe = Pipeline.from_spec("NL", target="st231", registers=4, check="boundaries")
    with pytest.raises(CheckError) as excinfo:
        pipe.run(bad)
    error = excinfo.value
    assert error.stage == "input"
    assert [d.code for d in error.diagnostics] == ["SSA002"]
    assert error.diagnostics[0].stage == "input"
    assert str(error).startswith("1 static invariant violation(s) after pass 'input':")


def test_check_off_fails_later_and_without_a_diagnostic_code():
    # Same malformed function, default mode: no static gate, so the failure
    # surfaces deep inside SSA construction as an untyped IRError instead of
    # an input-stage CheckError with a stable code.
    from repro.errors import IRError

    bad = parse_function("func @bad(%a) {\nentry:\n  %x = add %a, %ghost\n  ret %x\n}")
    with pytest.raises(IRError, match="used before any definition"):
        Pipeline.from_spec("NL", target="st231", registers=4).run(bad)


class _CorruptLivenessPass(Pass):
    """Test-only pass that silently corrupts the liveness analysis."""

    name = "corrupt-liveness"
    requires = ("lowered", "liveness")
    check_preserves = ("liveness",)

    def run(self, context, spec, store=None):
        # Set the bit of a register that is not live out of the entry block.
        info = context.liveness
        label = context.lowered.entry_label
        not_live = ~info.live_out[label] & ((1 << len(info.index)) - 1)
        info.live_out[label] |= not_live & -not_live
        return context.with_stage(self.name, 0.0)


def test_each_catches_a_broken_pass_and_names_it(diamond_function):
    register_pass(_CorruptLivenessPass.name, _CorruptLivenessPass)
    try:
        stages = ("liveness", "corrupt-liveness", "interference", "extract", "allocate")
        pipe = Pipeline.from_spec(
            PipelineSpec(stages=stages, target="st231", registers=4, check="each")
        )
        with pytest.raises(CheckError) as excinfo:
            pipe.run(diamond_function)
        error = excinfo.value
        assert error.stage == "corrupt-liveness"
        assert all(d.stage == "corrupt-liveness" for d in error.diagnostics)
        assert any(d.code.startswith("LIV") for d in error.diagnostics)
        assert "after pass 'corrupt-liveness'" in str(error)
        # The same chain with enforcement off lets the corruption through.
        quiet = Pipeline.from_spec(
            PipelineSpec(stages=stages, target="st231", registers=4)
        ).run(diamond_function)
        assert quiet.result is not None
    finally:
        _PASS_REGISTRY.pop(_CorruptLivenessPass.name, None)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("ssa", (True, False), ids=("ssa", "non-ssa"))
def test_shipped_examples_are_clean_under_check_each(path, target, ssa):
    module = parse_module(path.read_text(encoding="utf-8"), name=path.stem)
    pipe = Pipeline.from_spec(
        "NL", target=target, registers=4, ssa=ssa, check="each"
    )
    for function in module:
        context = pipe.run(function)
        assert context.result is not None
        assert context.diagnostics == (), [d.render() for d in context.diagnostics]


def test_regression_corpus_is_clean_under_check_each():
    cases = load_regressions(REPO / "tests" / "oracle" / "regressions")
    assert len(cases) == 5, "corpus drifted; update this count deliberately"
    for case in cases:
        pipe = Pipeline.from_spec(
            case.allocator,
            target=case.target,
            registers=case.registers,
            ssa=case.ssa,
            constrain=case.constrain,
            check="each",
        )
        context = pipe.run(case.function, name=case.path.stem)
        assert context.result is not None
        assert context.diagnostics == (), [d.render() for d in context.diagnostics]
