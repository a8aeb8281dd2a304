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

:func:`solve_ilp` solves it in three steps, each exact:

* **Reduce.**  Only a *binding* clique (more than ``R`` members) constrains
  anything.  A vertex in no binding clique is allocated without the solver:
  weights are ≥ 0, and every clique holding it has room for all its members.
  A problem with no binding clique allocates every vertex and calls no
  solver.  The model keeps one column per remaining vertex (in
  ``graph.vertices()`` order) and one sparse row per binding clique.
* **Certify.**  The LP relaxation is solved first.  On interval graphs the
  clique matrix has the consecutive-ones property, so it is totally
  unimodular and the LP optimum is integral; on the figures' corpora it is
  integral on about 99% of the cells.  Its answer is accepted only when every
  variable is within 1e-6 of 0 or 1, the rounded set has at most ``R``
  members in every binding clique (counted in integers), and its weight is
  within 1e-9 (relative) of the LP bound.  A feasible set that reaches an
  upper bound on the optimum is optimal.
* **Branch** otherwise: the same model with integrality, and a zero relative
  MIP gap (HiGHS stops at 1e-4 by default), so branched cells are exact too.

Among equal-cost optima the LP and the branch-and-bound tree may pick
different sets; the cost is the optimum either way.  With an ambient tracer
each solve counts its outcome as ``alloc.optimal.unconstrained``,
``alloc.optimal.lp`` or ``alloc.optimal.branched``.

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
from repro.telemetry.tracer import current_tracer

#: an LP variable this close to 0 or 1 counts as integral.
INTEGRALITY_TOLERANCE = 1e-6
#: the rounded LP set must reach the LP bound to this relative tolerance.
BOUND_TOLERANCE = 1e-9


@functools.lru_cache(maxsize=None)
def _milp_backend() -> Optional[Tuple[Any, Any, Any]]:
    """``(numpy, scipy.optimize, scipy.sparse)``, imported once on first use;
    ``None`` without scipy."""
    try:
        import numpy
        import scipy.optimize
        import scipy.sparse
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None
    return numpy, scipy.optimize, scipy.sparse


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
    np, optimize, sparse = backend
    vertices = graph.vertices()
    if not vertices:
        return set(), 0.0
    if num_registers <= 0:
        return set(), 0.0
    if cliques is None:
        from repro.graphs.cliques import maximal_cliques

        cliques = maximal_cliques(graph)

    tracer = current_tracer()
    binding = [c for c in cliques if len(c) > num_registers]
    if not binding:
        if tracer.enabled:
            tracer.count("alloc.optimal.unconstrained")
        return set(vertices), graph.total_weight()

    constrained: Set[Vertex] = set().union(*binding)
    columns = [v for v in vertices if v in constrained]
    index = {v: i for i, v in enumerate(columns)}
    indices = np.fromiter((index[v] for clique in binding for v in clique), dtype=np.int64)
    indptr = np.zeros(len(binding) + 1, dtype=np.int64)
    np.cumsum([len(clique) for clique in binding], out=indptr[1:])
    matrix = sparse.csr_array((np.ones(len(indices)), indices, indptr), shape=(len(binding), len(columns)))
    weights = np.array([graph.weight(v) for v in columns], dtype=float)
    constraints = optimize.LinearConstraint(matrix, lb=-np.inf, ub=float(num_registers))
    bounds = optimize.Bounds(lb=0.0, ub=1.0)

    # milp minimizes; we maximize allocated weight.
    relaxed = optimize.milp(-weights, integrality=np.zeros(len(columns)), bounds=bounds, constraints=constraints)
    outcome = "lp"
    keep = None
    if relaxed.success:
        rounded = np.rint(relaxed.x)
        bound = -relaxed.fun
        if (
            np.abs(relaxed.x - rounded).max() <= INTEGRALITY_TOLERANCE
            and np.add.reduceat(rounded.astype(np.int64)[indices], indptr[:-1]).max() <= num_registers
            and abs(float(weights @ rounded) - bound) <= BOUND_TOLERANCE * abs(bound)
        ):
            keep = rounded > 0.5
    if keep is None:
        outcome = "branched"
        result = optimize.milp(
            -weights,
            integrality=np.ones(len(columns)),
            bounds=bounds,
            constraints=constraints,
            options={"mip_rel_gap": 0},
        )
        if not result.success:
            raise AllocationError(f"MILP solver failed: {result.message}")
        keep = result.x > 0.5
    if tracer.enabled:
        tracer.count(f"alloc.optimal.{outcome}")
    allocated = {v for v in vertices if v not in constrained}
    allocated.update(v for v, kept in zip(columns, keep) if kept)
    return allocated, graph.total_weight(v for v in vertices if v in allocated)


class IlpOptimalAllocator(Allocator):
    """Optimal allocator backed by scipy's MILP solver."""

    name = "Optimal-ILP"
    version = "2"

    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Solve the clique-constrained ILP exactly."""
        allocated, _ = solve_ilp(problem.graph, problem.num_registers, cliques=problem.cliques)
        return self._result(problem, allocated, stats={"backend": "scipy-milp"})


register_allocator("Optimal-ILP", IlpOptimalAllocator)
