"""Validation of allocation results.

An allocation is *feasible* when the sub-graph induced by the allocated
variables can be colored with the available registers.  The check used here
mirrors the structure of the allocators:

* on chordal graphs feasibility is exact: the clique number of the induced
  sub-graph must not exceed ``R``.  For a chordal problem it is read off the
  problem's own perfect elimination order restricted to the allocated
  variables (:func:`feasibility_by_peo`), with no subgraph copy and no second
  search;
* on general graphs exact verification is NP-hard, so the check combines the
  necessary maximal-clique condition with a sufficient greedy-coloring
  attempt and reports which one decided.

``check_allocation`` additionally validates the bookkeeping of a result
(partition of the variables, correctly summed spill cost).  A *concrete*
register assignment is checked by :func:`repro.check.assignment_diagnostics`
(codes ``ALLOC005``–``ALLOC008``), which the pipeline's ``verify`` stage
reads directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.errors import InvalidAllocationError
from repro.graphs.chordal import is_chordal
from repro.graphs.cliques import maximal_cliques
from repro.graphs.coloring import (
    chromatic_number_chordal,
    greedy_coloring,
    is_valid_coloring,
    restricted_clique_number,
)
from repro.graphs.graph import Graph, Vertex


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check."""

    feasible: bool
    exact: bool
    reason: str


def is_allocation_feasible(graph: Graph, allocated: Iterable[Vertex], num_registers: int) -> FeasibilityReport:
    """Check whether ``allocated`` fits in ``num_registers`` registers.

    This is the general-graph path over the induced subgraph; chordal
    problems take :func:`feasibility_by_peo`, which reports the same verdict
    and reason without one.
    """
    induced = graph.subgraph(allocated)
    if len(induced) == 0:
        return FeasibilityReport(True, True, "empty allocation")
    if num_registers <= 0:
        return FeasibilityReport(False, True, "no registers available")

    if is_chordal(induced):
        return _chordal_report(chromatic_number_chordal(induced), num_registers)

    # Necessary condition: no clique larger than R.
    omega = max((len(c) for c in maximal_cliques(induced)), default=0)
    if omega > num_registers:
        return FeasibilityReport(False, True, f"allocated clique of size {omega} exceeds R={num_registers}")
    # Sufficient check: a greedy coloring that fits proves feasibility.
    coloring = greedy_coloring(induced)
    if is_valid_coloring(induced, coloring) and max(coloring.values()) + 1 <= num_registers:
        return FeasibilityReport(True, True, "greedy coloring fits in the register file")
    return FeasibilityReport(
        True,
        False,
        "clique bound satisfied but greedy coloring exceeded R; feasibility undecided (clique relaxation)",
    )


def feasibility_by_peo(
    graph: Graph, peo: Sequence[Vertex], allocated: Iterable[Vertex], num_registers: int
) -> FeasibilityReport:
    """:func:`is_allocation_feasible` for a chordal ``graph`` with PEO ``peo``.

    ``peo`` restricted to the allocated variables is a PEO of their induced
    subgraph, so its clique number — which equals its chromatic number —
    comes from one walk of the order
    (:func:`~repro.graphs.coloring.restricted_clique_number`).  The verdict
    is exact, as on the general path for a chordal subgraph.
    """
    needed = restricted_clique_number(graph, peo, allocated)
    if needed == 0:
        return FeasibilityReport(True, True, "empty allocation")
    if num_registers <= 0:
        return FeasibilityReport(False, True, "no registers available")
    return _chordal_report(needed, num_registers)


def _chordal_report(needed: int, num_registers: int) -> FeasibilityReport:
    return FeasibilityReport(
        needed <= num_registers,
        True,
        f"chordal induced sub-graph needs {needed} colors for {num_registers} registers",
    )


def check_allocation(problem: AllocationProblem, result: AllocationResult, strict: bool = True) -> FeasibilityReport:
    """Validate a result against its problem.

    .. deprecated:: this is a shim over
       :func:`repro.check.allocation_diagnostics` (codes
       ``ALLOC001``–``ALLOC004``), kept for its historical
       raise-on-first-violation contract; new code should consume the typed
       diagnostics directly.

    Raises :class:`InvalidAllocationError` when the result's bookkeeping is
    inconsistent or (with ``strict=True``) when the allocation is provably
    infeasible.
    """
    from repro.check.allocation import allocation_report_and_diagnostics

    report, diagnostics = allocation_report_and_diagnostics(
        problem, result, strict=strict
    )
    for diagnostic in diagnostics:
        if diagnostic.is_error:
            raise InvalidAllocationError(diagnostic.message)
    assert report is not None  # bookkeeping errors raised above
    return report
