"""Golden end-to-end tests: textual IR in -> rewritten IR out, per target.

The oracle is the *legacy glue path* — the exact sequence of loose calls the
repo shipped before the engine existed (SSA construction, liveness, costs,
interference graph — :func:`tests.pipeline.conftest.legacy_front_end` — then
allocation and optimized spill-code insertion), reproduced in the tests so it
stays frozen.  The engine must match it byte-for-byte on every example
program, on every target.
"""

from pathlib import Path

import pytest

from repro.alloc import get_allocator, insert_optimized_spill_code, insert_spill_code
from repro.alloc.problem import AllocationProblem
from repro.alloc.verify import check_allocation
from repro.ir.parser import parse_function, parse_module
from repro.ir.printer import print_function
from repro.pipeline import Pipeline
from repro.targets import get_target
from tests.pipeline.conftest import legacy_front_end

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples" / "ir").glob("*.ir"))

#: (target, ssa-mode, allocator) triples covering the paper's three studies.
TARGET_MATRIX = [
    ("st231", True, "NL"),
    ("armv7-a8", True, "BFPL"),
    ("jikesrvm-ia32", False, "LH"),
]


def _legacy_glue(function, target_name, ssa, allocator_name, registers, opt=True):
    """The pre-engine path: loose helper calls glued together by hand."""
    front = legacy_front_end(function, get_target(target_name), ssa)
    lowered = front["lowered"]
    problem = AllocationProblem(
        graph=front["graph"], num_registers=registers, intervals=front["intervals"], name=function.name
    )
    result = get_allocator(allocator_name).allocate(problem)
    check_allocation(problem, result, strict=True)
    spilled = sorted(str(v) for v in result.spilled)
    if opt:
        rewritten, _stats = insert_optimized_spill_code(lowered, spilled)
    else:
        rewritten, _stats = insert_spill_code(lowered, spilled)
    return problem, result, print_function(rewritten)


@pytest.fixture(scope="module")
def example_functions():
    assert EXAMPLES, "examples/ir/*.ir is empty"
    return {path.name: parse_function(path.read_text(encoding="utf-8")) for path in EXAMPLES}


@pytest.mark.parametrize("target_name,ssa,allocator", TARGET_MATRIX)
def test_engine_matches_legacy_glue_on_every_example(example_functions, target_name, ssa, allocator):
    registers = 3
    pipe = Pipeline.from_spec(allocator, target=target_name, ssa=ssa, registers=registers)
    for name, function in sorted(example_functions.items()):
        context = pipe.run(function)
        problem, result, legacy_ir = _legacy_glue(function, target_name, ssa, allocator, registers)
        assert context.result.spill_cost == pytest.approx(result.spill_cost), name
        assert context.result.spilled == result.spilled, name
        assert context.rewritten_ir() == legacy_ir, f"{name} on {target_name}"
        assert context.report is not None and context.report.feasible, name


@pytest.mark.parametrize("target_name,ssa,allocator", TARGET_MATRIX)
def test_golden_examples_spill_and_verify(example_functions, target_name, ssa, allocator):
    pipe = Pipeline.from_spec(allocator, target=target_name, ssa=ssa, registers=3)
    for name, function in sorted(example_functions.items()):
        context = pipe.run(function)
        # Every example is built to exceed R=3 pressure: spill code must exist,
        # parse back, and drop the register pressure to the promised level.
        assert context.spill_cost > 0, name
        assert context.stage_stats["spill_code"]["loads"] > 0, name
        reparsed = parse_function(context.rewritten_ir())
        assert print_function(reparsed) == context.rewritten_ir(), name
        assert context.report.feasible, name


def test_no_opt_matches_legacy_naive_spill_code(example_functions):
    pipe = Pipeline.from_spec("NL", target="st231", registers=3, opt=False)
    for name, function in sorted(example_functions.items()):
        context = pipe.run(function)
        _problem, _result, legacy_ir = _legacy_glue(function, "st231", True, "NL", 3, opt=False)
        assert context.rewritten_ir() == legacy_ir, name


def test_engine_matches_legacy_glue_on_shipped_corpora():
    """Parity on the real corpora: engine == legacy glue, instance by instance."""
    from repro.workloads.corpus import build_corpus

    for suite, ssa, allocator in [("lao_kernels", True, "NL"), ("specjvm98", False, "LH")]:
        corpus = build_corpus(suite, seed=7, scale=0.1)
        registers = 4
        pipe = Pipeline.from_spec(
            allocator, target=corpus.target, ssa=ssa, registers=registers, verify=False
        )
        for problem in list(corpus)[:6]:
            engine_ctx = pipe.run_problem(problem.with_registers(registers))
            legacy = get_allocator(allocator).allocate(problem.with_registers(registers))
            assert engine_ctx.result.spill_cost == pytest.approx(legacy.spill_cost), problem.name
            assert engine_ctx.result.spilled == legacy.spilled, problem.name
