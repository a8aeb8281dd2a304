"""Tests for the exact optimal allocators (ILP and branch-and-bound)."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc.optimal import OptimalAllocator, solve_optimal_allocation
from repro.alloc.optimal_bb import BranchAndBoundAllocator, solve_branch_and_bound
from repro.alloc.optimal_ilp import scipy_available, solve_ilp
from repro.alloc.problem import AllocationProblem
from repro.alloc.verify import check_allocation
from repro.errors import AllocationError
from repro.graphs.cliques import maximal_cliques
from repro.graphs.generators import complete_graph, cycle_graph, random_chordal_graph
from repro.graphs.graph import Graph


def make_problem(graph, registers):
    return AllocationProblem(graph=graph, num_registers=registers)


def brute_force_optimal_cost(graph, registers):
    """Reference optimum by trying every subset (tiny graphs only)."""
    vertices = graph.vertices()
    cliques = maximal_cliques(graph)
    best = graph.total_weight()
    for size in range(len(vertices), -1, -1):
        for keep in itertools.combinations(vertices, size):
            keep_set = set(keep)
            if all(len(keep_set & set(c)) <= registers for c in cliques):
                cost = graph.total_weight(v for v in vertices if v not in keep_set)
                best = min(best, cost)
    return best


# ---------------------------------------------------------------------- #
# branch and bound
# ---------------------------------------------------------------------- #
def test_bb_on_figure4_graph(figure4_graph):
    allocated, weight = solve_branch_and_bound(figure4_graph, 2)
    assert weight == pytest.approx(figure4_graph.total_weight(allocated))
    assert figure4_graph.total_weight() - weight == pytest.approx(
        brute_force_optimal_cost(figure4_graph, 2)
    )


def test_bb_zero_registers(figure4_graph):
    allocated, weight = solve_branch_and_bound(figure4_graph, 0)
    assert allocated == set()
    assert weight == 0.0


def test_bb_enough_registers_takes_everything(figure4_graph):
    allocated, _ = solve_branch_and_bound(figure4_graph, 10)
    assert allocated == set(figure4_graph.vertices())


def test_bb_node_budget_enforced():
    graph = random_chordal_graph(40, rng=1)
    with pytest.raises(AllocationError):
        solve_branch_and_bound(graph, 3, max_nodes=10)


def test_bb_allocator_class(figure4_graph):
    problem = make_problem(figure4_graph, 2)
    result = BranchAndBoundAllocator().allocate(problem)
    assert result.stats["backend"] == "branch-and-bound"
    assert check_allocation(problem, result).feasible


# ---------------------------------------------------------------------- #
# ILP backend
# ---------------------------------------------------------------------- #
def test_scipy_backend_is_available():
    # The experiment harness relies on it; this environment ships scipy.
    assert scipy_available()


def test_cli_import_leaves_scipy_and_numpy_unloaded():
    """scipy and numpy load on the first MILP solve, not with the package."""
    source = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    probe = "import sys, repro.cli; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_ilp_matches_branch_and_bound(figure4_graph, figure7_graph, figure2_graph):
    for graph in (figure4_graph, figure7_graph, figure2_graph):
        for registers in (1, 2, 3):
            _, ilp_weight = solve_ilp(graph, registers)
            _, bb_weight = solve_branch_and_bound(graph, registers)
            assert ilp_weight == pytest.approx(bb_weight)


def test_ilp_empty_graph():
    allocated, weight = solve_ilp(Graph(), 4)
    assert allocated == set()
    assert weight == 0.0


def test_ilp_zero_registers(figure4_graph):
    allocated, weight = solve_ilp(figure4_graph, 0)
    assert allocated == set()


# ---------------------------------------------------------------------- #
# the dispatching Optimal allocator
# ---------------------------------------------------------------------- #
def test_optimal_allocator_feasible_and_minimal(figure4_graph):
    for registers in (1, 2, 3, 4):
        problem = make_problem(figure4_graph, registers)
        result = OptimalAllocator().allocate(problem)
        assert check_allocation(problem, result).feasible
        assert result.spill_cost == pytest.approx(brute_force_optimal_cost(figure4_graph, registers))


def test_optimal_matches_branch_and_bound(figure4_graph):
    problem = make_problem(figure4_graph, 2)
    via_ilp = OptimalAllocator().allocate(problem)
    via_bb = BranchAndBoundAllocator().allocate(problem)
    _, bb_weight = solve_branch_and_bound(figure4_graph, 2, max_nodes=2_000_000)
    assert via_ilp.spill_cost == pytest.approx(via_bb.spill_cost)
    assert via_ilp.spill_cost == pytest.approx(figure4_graph.total_weight() - bb_weight)
    assert via_bb.stats["backend"] == "branch-and-bound"


def test_optimal_on_non_chordal_graph_uses_clique_relaxation():
    # The clique relaxation of C5 with 2 registers allows keeping everything
    # (every edge-clique has <= 2 vertices) even though C5 is not 2-colorable.
    # This mirrors the paper's ILP normalization on non-chordal graphs and is
    # documented as a lower bound.
    graph = cycle_graph(5)
    problem = make_problem(graph, 2)
    result = OptimalAllocator().allocate(problem)
    assert result.spill_cost == 0.0


def test_solve_optimal_allocation_function(figure7_graph):
    allocated, weight = solve_optimal_allocation(figure7_graph, 2)
    assert weight == pytest.approx(figure7_graph.total_weight(allocated))


def test_optimal_never_exceeds_any_heuristic(figure4_graph, figure7_graph):
    from repro.alloc import get_allocator

    for graph in (figure4_graph, figure7_graph):
        for registers in (1, 2, 3):
            problem = make_problem(graph, registers)
            optimal_cost = OptimalAllocator().allocate(problem).spill_cost
            for name in ("NL", "BL", "FPL", "BFPL", "GC", "LH"):
                heuristic_cost = get_allocator(name).allocate(problem).spill_cost
                assert optimal_cost <= heuristic_cost + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 10), registers=st.integers(0, 3))
def test_optimal_matches_subset_brute_force(seed, n, registers):
    graph = random_chordal_graph(n, rng=seed)
    problem = make_problem(graph, registers)
    result = OptimalAllocator().allocate(problem)
    assert result.spill_cost == pytest.approx(brute_force_optimal_cost(graph, registers))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 20), registers=st.integers(1, 4))
def test_ilp_and_bb_agree_on_random_graphs(seed, n, registers):
    graph = random_chordal_graph(n, rng=seed)
    _, ilp_weight = solve_ilp(graph, registers)
    _, bb_weight = solve_branch_and_bound(graph, registers)
    assert ilp_weight == pytest.approx(bb_weight)


def test_complete_graph_optimal_keeps_heaviest_r():
    graph = complete_graph(6, weights={f"v{i}": float(i + 1) for i in range(6)})
    problem = make_problem(graph, 2)
    result = OptimalAllocator().allocate(problem)
    assert result.allocated == frozenset({"v5", "v4"})
