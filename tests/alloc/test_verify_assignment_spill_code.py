"""Tests for allocation verification, register assignment and spill-code insertion."""

import pytest

from repro.alloc.assignment import assign_registers
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.alloc.spill_code import insert_spill_code
from repro.alloc.verify import check_allocation, is_allocation_feasible
from repro.analysis.interference import build_interference_graph
from repro.analysis.liveness import max_live
from repro.analysis.ssa_construction import construct_ssa
from repro.errors import AllocationError, InvalidAllocationError
from repro.graphs.generators import complete_graph, cycle_graph, path_graph
from repro.ir.validate import verify_function
from tests.conftest import front_end_problem


# ---------------------------------------------------------------------- #
# feasibility checks
# ---------------------------------------------------------------------- #
def test_feasibility_empty_allocation(figure4_graph):
    report = is_allocation_feasible(figure4_graph, [], 0)
    assert report.feasible and report.exact


def test_feasibility_no_registers(figure4_graph):
    report = is_allocation_feasible(figure4_graph, ["a"], 0)
    assert not report.feasible


def test_feasibility_chordal_exact(figure4_graph):
    ok = is_allocation_feasible(figure4_graph, ["b", "f"], 1)
    assert ok.feasible and ok.exact
    bad = is_allocation_feasible(figure4_graph, ["b", "c", "e", "g"], 3)
    assert not bad.feasible and bad.exact


def test_feasibility_non_chordal_clique_bound():
    graph = cycle_graph(5)
    # C5 is not 2-colorable, but the clique bound cannot prove it: the check
    # falls back to a greedy coloring, which succeeds here with 3 colors.
    report = is_allocation_feasible(graph, graph.vertices(), 3)
    assert report.feasible
    report2 = is_allocation_feasible(graph, graph.vertices(), 1)
    assert not report2.feasible and report2.exact


def test_check_allocation_detects_bad_partition(figure4_graph):
    problem = AllocationProblem(graph=figure4_graph, num_registers=2)
    bogus = AllocationResult.from_sets("X", 2, ["a"], ["b"], spill_cost=1.0)
    with pytest.raises(InvalidAllocationError):
        check_allocation(problem, bogus)


def test_check_allocation_detects_wrong_cost(figure4_graph):
    problem = AllocationProblem(graph=figure4_graph, num_registers=2)
    allocated = ["b", "f"]
    spilled = [v for v in figure4_graph.vertices() if v not in allocated]
    wrong = AllocationResult.from_sets("X", 2, allocated, spilled, spill_cost=0.0)
    with pytest.raises(InvalidAllocationError):
        check_allocation(problem, wrong)


def test_check_allocation_detects_infeasible_allocation(figure4_graph):
    problem = AllocationProblem(graph=figure4_graph, num_registers=1)
    allocated = ["d", "e", "f"]  # a triangle cannot fit in one register
    spilled = [v for v in figure4_graph.vertices() if v not in allocated]
    bogus = AllocationResult.from_sets(
        "X", 1, allocated, spilled, spill_cost=figure4_graph.total_weight(spilled)
    )
    with pytest.raises(InvalidAllocationError):
        check_allocation(problem, bogus, strict=True)
    # Non-strict mode only reports.
    report = check_allocation(problem, bogus, strict=False)
    assert not report.feasible


# ---------------------------------------------------------------------- #
# register assignment
# ---------------------------------------------------------------------- #
def test_assign_registers_chordal(figure4_graph):
    mapping = assign_registers(figure4_graph, ["b", "f", "d", "g"], num_registers=2)
    assert set(mapping) == {"b", "f", "d", "g"}
    # Adjacent allocated vertices get different registers.
    for u in mapping:
        for v in mapping:
            if u != v and figure4_graph.has_edge(u, v):
                assert mapping[u] != mapping[v]


def test_assign_registers_empty():
    assert assign_registers(path_graph(3), [], 2) == {}


def test_assign_registers_uses_register_names(figure4_graph):
    names = {0: "r0", 1: "r1", 2: "r2", 3: "r3"}
    mapping = assign_registers(figure4_graph, figure4_graph.vertices(), 4, register_names=names)
    assert set(mapping.values()) <= set(names.values())


def test_assign_registers_raises_when_too_few(figure4_graph):
    with pytest.raises(AllocationError):
        assign_registers(figure4_graph, figure4_graph.vertices(), 2)


def test_assign_registers_non_chordal_allocation():
    graph = cycle_graph(4)
    mapping = assign_registers(graph, graph.vertices(), 2)
    assert len(set(mapping.values())) <= 2


def test_assign_registers_roundtrip_with_allocator(loop_function):
    problem = front_end_problem(loop_function).with_registers(3)
    from repro.alloc import get_allocator

    result = get_allocator("BFPL").allocate(problem)
    mapping = assign_registers(problem.graph, result.allocated, 3)
    assert set(mapping) == set(result.allocated)


# ---------------------------------------------------------------------- #
# spill code insertion
# ---------------------------------------------------------------------- #
def test_insert_spill_code_counts_loads_and_stores(loop_function):
    ssa = construct_ssa(loop_function)
    rewritten, stats = insert_spill_code(ssa, ["sum.1"])
    verify_function(rewritten)
    assert stats["stores"] >= 1
    assert stats["loads"] >= 1


def test_insert_spill_code_reduces_pressure(loop_function):
    ssa = construct_ssa(loop_function)
    problem = front_end_problem(loop_function).with_registers(3)
    from repro.alloc import get_allocator

    result = get_allocator("BFPL").allocate(problem)
    if not result.spilled:
        pytest.skip("nothing spilled at this register count")
    rewritten, _ = insert_spill_code(ssa, [str(v) for v in result.spilled])
    # The spilled variables' long live ranges are gone; only short reload
    # ranges remain, so the pressure cannot have increased.
    assert max_live(rewritten) <= max_live(ssa)


def test_insert_spill_code_no_spills_is_identity_in_size(diamond_function):
    ssa = construct_ssa(diamond_function)
    rewritten, stats = insert_spill_code(ssa, [])
    assert stats == {"loads": 0, "stores": 0}
    assert rewritten.num_instructions() == ssa.num_instructions()


def test_insert_spill_code_does_not_mutate_input(diamond_function):
    from repro.ir.printer import print_function

    ssa = construct_ssa(diamond_function)
    before = print_function(ssa)
    insert_spill_code(ssa, [reg.name for reg in ssa.virtual_registers()][:2])
    assert print_function(ssa) == before


def test_insert_spill_code_rewrites_uses_to_reloads(diamond_function):
    ssa = construct_ssa(diamond_function)
    target = ssa.parameters[0].name
    rewritten, _ = insert_spill_code(ssa, [target])
    # No ordinary instruction may still use the spilled name directly.
    for block in rewritten:
        for instruction in block.instructions:
            if instruction.opcode.value == "store":
                continue
            for reg in instruction.used_registers():
                assert reg.name != target


def test_interference_graph_of_spilled_code_drops_spilled_ranges(loop_function):
    ssa = construct_ssa(loop_function)
    graph_before = build_interference_graph(ssa)
    heavy = max(graph_before.vertices(), key=graph_before.degree)
    rewritten, _ = insert_spill_code(ssa, [heavy])
    graph_after = build_interference_graph(rewritten)
    # The spilled variable's reload temporaries have smaller degree than the
    # original long live range.
    reload_degrees = [
        graph_after.degree(v) for v in graph_after.vertices() if str(v).startswith(f"{heavy}.reload")
    ]
    if reload_degrees:
        assert max(reload_degrees) <= graph_before.degree(heavy)


def test_feasibility_of_complete_graph_allocation():
    graph = complete_graph(4)
    assert is_allocation_feasible(graph, graph.vertices(), 4).feasible
    assert not is_allocation_feasible(graph, graph.vertices(), 3).feasible


# ---------------------------------------------------------------------- #
# concrete-assignment verification against the target register file
# ---------------------------------------------------------------------- #
def _tiny_problem():
    from repro.graphs.graph import Graph

    graph = Graph()
    for name in ("a", "b", "c"):
        graph.add_vertex(name, 1.0)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    return AllocationProblem(graph=graph, num_registers=2, name="tiny")


def _result_all_allocated(problem):
    return AllocationResult.from_sets(
        allocator="test",
        num_registers=problem.num_registers,
        allocated=list(problem.graph.vertices()),
        spilled=[],
        spill_cost=0.0,
    )


def _verify_assignment(problem, result, assignment, target=None):
    """Run the pipeline's ``verify`` stage on a concrete register assignment."""
    from repro.pipeline import Pipeline, PipelineContext

    context = PipelineContext(
        problem=problem, result=result, assignment=assignment, target=target
    )
    return Pipeline.from_spec("verify").run_context(context)


def test_check_assignment_accepts_valid_assignment():
    from repro.targets import get_target

    problem = _tiny_problem()
    result = _result_all_allocated(problem)
    # st231 reserves r0, so the R=2 budget covers allocatable r1/r2.
    assignment = {"a": "r1", "b": "r2", "c": "r1"}
    context = _verify_assignment(problem, result, assignment, target=get_target("st231"))
    assert context.stage_stats["verify"]["assignment_checked"]


def test_check_assignment_rejects_interfering_shared_register():
    problem = _tiny_problem()
    result = _result_all_allocated(problem)
    with pytest.raises(InvalidAllocationError, match="share register"):
        _verify_assignment(problem, result, {"a": "r0", "b": "r0", "c": "r1"})


def test_check_assignment_rejects_missing_variable():
    problem = _tiny_problem()
    result = _result_all_allocated(problem)
    with pytest.raises(InvalidAllocationError, match="missing from the register assignment"):
        _verify_assignment(problem, result, {"a": "r0", "b": "r1"})


def test_check_assignment_rejects_assigned_spilled_variable():
    problem = _tiny_problem()
    vertices = list(problem.graph.vertices())
    result = AllocationResult.from_sets(
        allocator="test",
        num_registers=problem.num_registers,
        allocated=vertices[:2],
        spilled=vertices[2:],
        spill_cost=1.0,
    )
    assignment = {v: f"r{i}" for i, v in enumerate(vertices)}
    with pytest.raises(InvalidAllocationError, match="spilled variables must not"):
        _verify_assignment(problem, result, assignment)


def test_check_assignment_rejects_register_outside_target_file():
    from repro.targets import get_target

    problem = _tiny_problem()
    result = _result_all_allocated(problem)
    # jikesrvm-ia32 has 6 registers; r9 does not exist in its file.
    with pytest.raises(InvalidAllocationError, match="outside target"):
        _verify_assignment(
            problem, result, {"a": "r0", "b": "r9", "c": "r0"},
            target=get_target("jikesrvm-ia32"),
        )


def test_check_assignment_respects_register_count_budget():
    from repro.targets import get_target

    problem = _tiny_problem()  # R = 2
    result = _result_all_allocated(problem)
    # r3 is a valid st231 name but outside the problem's R=2 budget (the
    # sweep restricted the allocatable file — r0 is reserved — to r1/r2).
    with pytest.raises(InvalidAllocationError, match="outside target"):
        _verify_assignment(
            problem, result, {"a": "r3", "b": "r1", "c": "r3"},
            target=get_target("st231"),
        )


def test_pipeline_verify_stage_checks_assignment_on_all_targets():
    from repro.pipeline import Pipeline, PipelineSpec
    from repro.workloads.programs import GeneratorProfile, generate_function

    profile = GeneratorProfile(statements=20, accumulators=5, loop_depth=1)
    function = generate_function("verify_targets", profile, rng=7)
    from repro.targets import get_target

    for target in ("st231", "armv7-a8", "jikesrvm-ia32", "riscv"):
        context = Pipeline(PipelineSpec(allocator="NL", target=target, registers=4)).run(function)
        assert context.stage_stats["verify"]["assignment_checked"] is True
        # Names come from the *allocatable* file (st231 reserves r0, riscv
        # reserves x0-x4), never the raw r0..rN numbering.
        assert set(context.assignment.values()) <= set(get_target(target).allocatable()[:4])


def test_spill_slots_never_collide_with_program_addresses():
    # A program that itself addresses memory at SPILL_SLOT_BASE must get its
    # slots placed above its highest constant address — otherwise a spill
    # store silently clobbers visible program memory and the oracle, which
    # masks slot traffic, would certify the miscompile as 'ok'.
    from repro.alloc.spill_code import SPILL_SLOT_BASE
    from repro.ir.interpreter import interpret
    from repro.ir.parser import parse_function

    fn = parse_function(
        f"""
func @hi_addr(%p) {{
entry:
  store {SPILL_SLOT_BASE}, %p
  %v = add %p, 1
  %u = add %v, 2
  ret %u
}}
"""
    )
    rewritten, stats = insert_spill_code(fn, ["v"])
    assert stats["stores"] == 1
    for arguments in ([3], [9]):
        before = interpret(fn, arguments)
        after = interpret(rewritten, arguments)
        assert after.return_value == before.return_value
        assert after.memory[SPILL_SLOT_BASE] == before.memory[SPILL_SLOT_BASE], (
            "spill slot clobbered visible program memory"
        )
