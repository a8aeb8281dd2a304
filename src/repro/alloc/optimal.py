"""The "Optimal" allocator: exact spill-everywhere optimum with backend dispatch.

Uses the scipy MILP backend when scipy imports (fast, scales to the corpus
sizes of the experiment harness) and the in-house branch-and-bound solver
otherwise.  Both solve the same maximal-clique formulation exactly, so their
costs are identical; their sets may differ among equal-cost optima.  The test
suite cross-checks them on small instances.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.alloc.base import Allocator, register_allocator
from repro.alloc.optimal_bb import solve_branch_and_bound
from repro.alloc.optimal_ilp import scipy_available, solve_ilp
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.graphs.graph import Graph, Vertex


def solve_optimal_allocation(graph: Graph, num_registers: int, cliques=None) -> Tuple[Set[Vertex], float]:
    """Return ``(allocated, allocated_weight)`` using the best available backend.

    The branch-and-bound fallback runs with the historical 2M-node budget:
    "Optimal" is the sweep/figure baseline and should decide everything it
    always could, while the standalone Optimal-BB allocator keeps the small
    default that makes fuzz campaigns affordable.
    """
    if scipy_available():
        return solve_ilp(graph, num_registers, cliques=cliques)
    return solve_branch_and_bound(graph, num_registers, cliques=cliques, max_nodes=2_000_000)


class OptimalAllocator(Allocator):
    """Exact optimal spill-everywhere allocation (the paper's "Optimal")."""

    name = "Optimal"
    version = "2"

    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Solve the instance exactly with the available backend."""
        allocated, _ = solve_optimal_allocation(problem.graph, problem.num_registers, cliques=problem.cliques)
        backend = "scipy-milp" if scipy_available() else "branch-and-bound"
        return self._result(problem, allocated, stats={"backend": backend})


register_allocator("Optimal", OptimalAllocator)
register_allocator("optimal", OptimalAllocator)
