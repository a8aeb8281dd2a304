"""The legacy verifiers are shims over repro.check with byte-identical messages.

``repro.ir.validate`` and ``repro.alloc.verify`` predate the machine-verifier;
both now delegate to the diagnostic framework but must keep raising the exact
strings existing callers and tests match on.  (Assignment checks have no shim:
the pipeline's verify stage reads ``assignment_diagnostics`` directly.)
"""

import pytest

from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.alloc.verify import check_allocation
from repro.errors import InvalidAllocationError, VerificationError
from repro.graphs.graph import Graph
from repro.ir.parser import parse_function, parse_module
from repro.ir.validate import verify_function, verify_module


def test_verify_function_message_unchanged_missing_terminator():
    fn = parse_function("func @f() {\nentry:\n  %x = add 1, 2\n}")
    with pytest.raises(VerificationError) as excinfo:
        verify_function(fn)
    assert str(excinfo.value) == "block 'entry' of 'f' does not end with a terminator"


def test_verify_function_message_unchanged_undefined_register():
    fn = parse_function("func @f(%a) {\nentry:\n  %x = add %a, %ghost\n  ret %x\n}")
    with pytest.raises(VerificationError) as excinfo:
        verify_function(fn)
    assert str(excinfo.value) == (
        "register %ghost used in block 'entry' of 'f' but never defined"
    )


def test_verify_function_require_ssa_message_unchanged():
    fn = parse_function(
        "func @f(%a) {\nentry:\n  %x = add %a, 1\n  %x = add %x, 1\n  ret %x\n}"
    )
    verify_function(fn)  # legal as input IR
    with pytest.raises(VerificationError) as excinfo:
        verify_function(fn, require_ssa=True)
    assert str(excinfo.value) == (
        "function 'f' is not in SSA form: multiple definitions of ['%x']"
    )


def test_verify_function_ignores_note_severity_findings():
    # Unreachable blocks are a CFG005 note in the framework; the legacy
    # verifier never rejected them and still must not.
    fn = parse_function("func @f() {\nentry:\n  ret\ndead:\n  ret\n}")
    verify_function(fn)


def test_verify_module_names_the_offending_function():
    module = parse_module(
        "func @ok() {\nentry:\n  ret\n}\n\nfunc @bad() {\nentry:\n  %x = add 1, 2\n}"
    )
    with pytest.raises(VerificationError, match="block 'entry' of 'bad'"):
        verify_module(module)


def _problem(registers=2):
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return AllocationProblem(graph=g, num_registers=registers, name="shim")


def _result(allocated, spilled, cost, registers=2):
    return AllocationResult(
        allocator="shim",
        num_registers=registers,
        allocated=frozenset(allocated),
        spilled=frozenset(spilled),
        spill_cost=cost,
    )


def test_check_allocation_message_unchanged_coverage():
    with pytest.raises(InvalidAllocationError) as excinfo:
        check_allocation(_problem(), _result({"a"}, set(), 0.0))
    assert str(excinfo.value) == "allocated ∪ spilled does not cover all variables"


def test_check_allocation_message_unchanged_overlap():
    with pytest.raises(InvalidAllocationError) as excinfo:
        check_allocation(_problem(), _result({"a", "b", "c"}, {"a"}, 1.0))
    assert str(excinfo.value) == "allocated and spilled sets overlap"


def test_check_allocation_still_returns_a_feasibility_report():
    report = check_allocation(_problem(), _result({"a", "b"}, {"c"}, 1.0))
    assert report.feasible


def test_shims_document_their_replacement():
    assert "deprecated" in (verify_function.__doc__ or "")
    assert "repro.check" in (verify_function.__doc__ or "")
    assert "deprecated" in (check_allocation.__doc__ or "")
