"""Tests for AllocationProblem and AllocationResult."""

import pytest

from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.errors import AllocationError
from repro.graphs.generators import complete_graph, cycle_graph, random_chordal_graph


def test_problem_basic_properties(figure4_graph):
    problem = AllocationProblem(graph=figure4_graph, num_registers=2, name="fig4")
    assert problem.is_chordal
    assert problem.max_pressure == 4  # the {b, c, e, g} clique
    assert problem.total_weight == 19
    assert set(problem.variables) == set("abcdefg")
    assert problem.needs_spilling()
    assert problem.spill_cost_of(["d", "f"]) == 11


def test_problem_negative_registers_rejected(figure4_graph):
    with pytest.raises(AllocationError):
        AllocationProblem(graph=figure4_graph, num_registers=-1)


def test_problem_with_registers_shares_cached_structures(figure4_graph):
    problem = AllocationProblem(graph=figure4_graph, num_registers=2)
    _ = problem.cliques, problem.is_chordal, problem.peo
    clone = problem.with_registers(8)
    assert clone.num_registers == 8
    assert clone.cliques is problem.cliques
    assert clone.peo is problem.peo
    assert not clone.needs_spilling()


def test_problem_peo_raises_on_non_chordal():
    problem = AllocationProblem(graph=cycle_graph(5), num_registers=2)
    assert not problem.is_chordal
    from repro.errors import NotChordalError

    with pytest.raises(NotChordalError):
        _ = problem.peo


def test_problem_max_pressure_of_complete_graph():
    problem = AllocationProblem(graph=complete_graph(6), num_registers=3)
    assert problem.max_pressure == 6


def test_problem_weights_copy(figure4_graph):
    problem = AllocationProblem(graph=figure4_graph, num_registers=2)
    weights = problem.weights()
    weights["a"] = 999
    assert figure4_graph.weight("a") == 1


def test_result_from_sets_and_counts():
    result = AllocationResult.from_sets(
        allocator="NL",
        num_registers=4,
        allocated=["a", "b"],
        spilled=["c"],
        spill_cost=3.5,
        stats={"layers": 4},
    )
    assert result.num_allocated == 2
    assert result.num_spilled == 1
    assert result.spill_cost == 3.5
    assert result.stats["layers"] == 4
    assert result.allocated == frozenset({"a", "b"})


def test_result_normalized_cost():
    result = AllocationResult.from_sets("NL", 2, ["a"], ["b"], spill_cost=6.0)
    assert result.normalized_cost(3.0) == 2.0
    zero = AllocationResult.from_sets("NL", 2, ["a", "b"], [], spill_cost=0.0)
    assert zero.normalized_cost(0.0) == 1.0
    assert result.normalized_cost(0.0) == float("inf")


def test_result_is_frozen():
    result = AllocationResult.from_sets("NL", 2, ["a"], [], 0.0)
    with pytest.raises(Exception):
        result.spill_cost = 5.0  # type: ignore[misc]


def test_problem_cliques_cached(figure4_graph):
    problem = AllocationProblem(graph=figure4_graph, num_registers=2)
    first = problem.cliques
    second = problem.cliques
    assert first is second


def test_random_problem_pressure_between_bounds():
    graph = random_chordal_graph(40, rng=17)
    problem = AllocationProblem(graph=graph, num_registers=4)
    assert 1 <= problem.max_pressure <= len(graph)
