"""Tests for the layered-optimal allocator (NL) and its building blocks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc.base import available_allocators, get_allocator
from repro.alloc.layered import LayeredOptimalAllocator, optimal_layer
from repro.alloc.problem import AllocationProblem
from repro.alloc.verify import check_allocation
from repro.errors import AllocationError
from repro.graphs.generators import complete_graph, path_graph, random_chordal_graph
from repro.graphs.stable_set import is_stable_set


def make_problem(graph, registers):
    return AllocationProblem(graph=graph, num_registers=registers)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
def test_registry_contains_all_paper_allocators():
    names = {name.lower() for name in available_allocators()}
    for required in ("nl", "bl", "fpl", "bfpl", "lh", "gc", "ls", "bls", "optimal"):
        assert required in names


def test_get_allocator_unknown_name_raises():
    with pytest.raises(AllocationError):
        get_allocator("definitely-not-an-allocator")


def test_get_allocator_is_case_insensitive():
    assert isinstance(get_allocator("nl"), LayeredOptimalAllocator)


# ---------------------------------------------------------------------- #
# optimal_layer
# ---------------------------------------------------------------------- #
def test_optimal_layer_is_max_weight_stable_set(figure4_graph):
    peo = make_problem(figure4_graph, 1).peo
    layer = optimal_layer(figure4_graph, set(figure4_graph.vertices()), peo)
    assert is_stable_set(figure4_graph, layer)
    assert figure4_graph.total_weight(layer) == 8


def test_optimal_layer_respects_candidates(figure4_graph):
    layer = optimal_layer(figure4_graph, {"a", "d"}, make_problem(figure4_graph, 1).peo)
    assert set(layer) == {"d"}  # a and d interfere; d is heavier


def test_optimal_layer_empty_candidates(figure4_graph):
    assert optimal_layer(figure4_graph, set(), make_problem(figure4_graph, 1).peo) == []


# ---------------------------------------------------------------------- #
# the NL allocator
# ---------------------------------------------------------------------- #
def test_nl_zero_registers_spills_everything(figure4_graph):
    result = LayeredOptimalAllocator().allocate(make_problem(figure4_graph, 0))
    assert result.allocated == frozenset()
    assert result.spill_cost == figure4_graph.total_weight()


def test_nl_enough_registers_allocates_everything(figure4_graph):
    result = LayeredOptimalAllocator().allocate(make_problem(figure4_graph, 4))
    assert result.spilled == frozenset()
    assert result.spill_cost == 0


def test_nl_one_register_keeps_max_stable_set(figure4_graph):
    problem = make_problem(figure4_graph, 1)
    result = LayeredOptimalAllocator().allocate(problem)
    assert is_stable_set(figure4_graph, result.allocated)
    assert figure4_graph.total_weight(result.allocated) == 8
    check_allocation(problem, result)


def test_nl_result_bookkeeping_consistent(figure4_graph):
    problem = make_problem(figure4_graph, 2)
    result = LayeredOptimalAllocator().allocate(problem)
    assert result.allocated | result.spilled == set(figure4_graph.vertices())
    assert not (result.allocated & result.spilled)
    assert result.spill_cost == pytest.approx(figure4_graph.total_weight(result.spilled))
    assert result.stats["layers"] <= 2


def test_nl_allocation_always_feasible(figure4_graph, figure7_graph, figure2_graph):
    for graph in (figure4_graph, figure7_graph, figure2_graph):
        for registers in (1, 2, 3):
            problem = make_problem(graph, registers)
            result = LayeredOptimalAllocator().allocate(problem)
            report = check_allocation(problem, result)
            assert report.feasible


def test_nl_on_complete_graph_allocates_r_heaviest():
    graph = complete_graph(5, weights={f"v{i}": float(i + 1) for i in range(5)})
    result = LayeredOptimalAllocator().allocate(make_problem(graph, 2))
    assert result.allocated == frozenset({"v4", "v3"})


def test_nl_on_path_graph_allocates_everything_with_two_registers():
    graph = path_graph(6)
    result = LayeredOptimalAllocator().allocate(make_problem(graph, 2))
    assert result.spilled == frozenset()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 40), registers=st.integers(0, 6))
def test_nl_property_feasible_on_random_chordal_graphs(seed, n, registers):
    graph = random_chordal_graph(n, rng=seed)
    problem = make_problem(graph, registers)
    result = LayeredOptimalAllocator().allocate(problem)
    report = check_allocation(problem, result)
    assert report.feasible
    # The allocation is a union of at most R stable sets, hence R-colorable.
    assert result.stats["layers"] <= max(registers, 0)
