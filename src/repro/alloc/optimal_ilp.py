"""Exact optimal allocation as an integer linear program.

The paper's "Optimal" baseline is an ILP ("an ILP-based allocator" for the
chordal study, the Diouf et al. HiPEAC'10 model for the JVM study).  The
model reproduced here is the maximal-clique formulation:

    maximize    Σ_v  w(v) · x_v
    subject to  Σ_{v ∈ C} x_v ≤ R        for every maximal clique C
                x_v ∈ {0, 1}

On chordal graphs the clique constraints are exactly the colorability
condition, so this is the true optimum; on general graphs it is the standard
clique relaxation (a lower bound on the spill cost), which is how the
normalization in Figures 14–15 is defined.

The backend is ``scipy.optimize.milp`` (HiGHS), imported with numpy on the
first solve rather than with this module: they take most of a cold
``import repro``.  When scipy is missing the caller should use
:mod:`repro.alloc.optimal_bb` instead — see :mod:`repro.alloc.optimal` for
the dispatching allocator.
"""

from __future__ import annotations

import functools
from typing import Any, Optional, Sequence, Set, Tuple

from repro.alloc.base import Allocator, register_allocator
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.errors import AllocationError, SolverUnavailableError
from repro.graphs.cliques import Clique
from repro.graphs.graph import Graph, Vertex


@functools.lru_cache(maxsize=None)
def _milp_backend() -> Optional[Tuple[Any, Any]]:
    """``(numpy, scipy.optimize)``, imported once on first use; ``None`` without scipy."""
    try:
        import numpy
        import scipy.optimize
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None
    return numpy, scipy.optimize


def scipy_available() -> bool:
    """Whether the scipy MILP backend can be used (imports it on first call)."""
    return _milp_backend() is not None


def solve_ilp(
    graph: Graph,
    num_registers: int,
    cliques: Sequence[Clique] | None = None,
) -> Tuple[Set[Vertex], float]:
    """Return ``(allocated, allocated_weight)`` from the MILP optimum."""
    backend = _milp_backend()
    if backend is None:
        raise SolverUnavailableError("scipy is required for the ILP optimal allocator")
    np, optimize = backend
    vertices = graph.vertices()
    if not vertices:
        return set(), 0.0
    if num_registers <= 0:
        return set(), 0.0
    if cliques is None:
        from repro.graphs.cliques import maximal_cliques

        cliques = maximal_cliques(graph)

    index = {v: i for i, v in enumerate(vertices)}
    weights = np.array([graph.weight(v) for v in vertices], dtype=float)

    # milp minimizes; we maximize allocated weight.
    objective = -weights

    constraints = []
    binding = [c for c in cliques if len(c) > num_registers]
    if binding:
        matrix = np.zeros((len(binding), len(vertices)))
        for row, clique in enumerate(binding):
            for vertex in clique:
                matrix[row, index[vertex]] = 1.0
        constraints.append(
            optimize.LinearConstraint(matrix, lb=-np.inf, ub=float(num_registers))
        )

    result = optimize.milp(
        c=objective,
        constraints=constraints,
        integrality=np.ones(len(vertices)),
        bounds=optimize.Bounds(lb=0.0, ub=1.0),
    )
    if not result.success:
        raise AllocationError(f"MILP solver failed: {result.message}")
    chosen = {vertices[i] for i, value in enumerate(result.x) if value > 0.5}
    return chosen, float(sum(graph.weight(v) for v in chosen))


class IlpOptimalAllocator(Allocator):
    """Optimal allocator backed by scipy's MILP solver."""

    name = "Optimal-ILP"
    version = "1"

    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Solve the clique-constrained ILP exactly."""
        allocated, _ = solve_ilp(problem.graph, problem.num_registers, cliques=problem.cliques)
        return self._result(problem, allocated, stats={"backend": "scipy-milp"})


register_allocator("Optimal-ILP", IlpOptimalAllocator)
