"""Allocation postconditions (``ALLOC001``–``ALLOC008``, ``SPL001``–``SPL004``).

Three families, mirroring the legacy ``repro.alloc.verify`` checks plus a
new static audit of the spill-code rewrite:

* :func:`allocation_diagnostics` — result bookkeeping: allocated ∪ spilled
  covers every variable (``ALLOC001``), the sets are disjoint (``ALLOC002``),
  the summed spill cost matches (``ALLOC003``), and the allocation is not
  provably infeasible (``ALLOC004``);
* :func:`assignment_diagnostics` — a concrete register assignment: every
  allocated variable mapped (``ALLOC005``), no spilled variable holds a
  register (``ALLOC006``), interfering variables never share (``ALLOC007``),
  and the register budget/names respect the target file (``ALLOC008``);
* :func:`spill_diagnostics` — the rewritten function: every use of a spilled
  register is reached by a reload or an earlier same-block definition
  (``SPL001``), every definition is followed by a store to its slot
  (``SPL002``), every reload loads from a slot some store fills (``SPL003``),
  and φ operands of spilled registers — which the spill-everywhere rewriter
  deliberately leaves in registers along the edge — are flagged as a
  pressure-leak note (``SPL004``).

The diagnostic *messages* of the first two families are byte-identical to
the historical :class:`~repro.errors.InvalidAllocationError` messages, so
the shims in :mod:`repro.alloc.verify` can re-raise them unchanged.

Neither family copies the interference graph.  On a chordal problem
``ALLOC004`` takes the clique number of the allocated subgraph from the
problem's own PEO restricted to the allocated variables; on a dense graph
``ALLOC007`` tests one mask per register against the adjacency rows and
walks the edges only to report a clash it found.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.check.diagnostics import Diagnostic, Location, Severity
from repro.check.registry import Checker, CheckRequest
from repro.graphs.graph import Graph, Vertex, bit_indices
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.values import Constant, VirtualRegister
from repro.targets.machine import TargetMachine


def allocation_diagnostics(
    problem: AllocationProblem,
    result: AllocationResult,
    strict: bool = True,
    function_name: Optional[str] = None,
) -> List[Diagnostic]:
    """Bookkeeping + feasibility diagnostics for one allocation result."""
    return allocation_report_and_diagnostics(
        problem, result, strict=strict, function_name=function_name
    )[1]


def allocation_report_and_diagnostics(
    problem: AllocationProblem,
    result: AllocationResult,
    strict: bool = True,
    function_name: Optional[str] = None,
) -> Tuple[Optional[object], List[Diagnostic]]:
    """Like :func:`allocation_diagnostics`, also returning the feasibility
    report (``None`` when the bookkeeping is too broken to compute one) so
    the :func:`repro.alloc.verify.check_allocation` shim pays for it once."""
    from repro.alloc.verify import feasibility_by_peo, is_allocation_feasible

    where = Location(function=function_name)
    diagnostics: List[Diagnostic] = []
    vertices = set(problem.graph.vertices())
    if set(result.allocated) | set(result.spilled) != vertices:
        diagnostics.append(
            Diagnostic(
                code="ALLOC001",
                message="allocated ∪ spilled does not cover all variables",
                location=where,
                hint="every interference-graph vertex must land in one set",
            )
        )
    if set(result.allocated) & set(result.spilled):
        diagnostics.append(
            Diagnostic(
                code="ALLOC002",
                message="allocated and spilled sets overlap",
                location=where,
            )
        )
    expected_cost = problem.spill_cost_of(list(result.spilled))
    if abs(expected_cost - result.spill_cost) > 1e-6 * max(1.0, expected_cost):
        diagnostics.append(
            Diagnostic(
                code="ALLOC003",
                message=(
                    f"spill cost mismatch: result says {result.spill_cost}, "
                    f"recomputed {expected_cost}"
                ),
                location=where,
                hint="sum the weights of the spilled set",
            )
        )
    report = None
    if not any(d.code in ("ALLOC001", "ALLOC002") for d in diagnostics):
        if problem.is_chordal:
            report = feasibility_by_peo(
                problem.graph, problem.peo, result.allocated, result.num_registers
            )
        else:
            report = is_allocation_feasible(
                problem.graph, result.allocated, result.num_registers
            )
        if strict and report.exact and not report.feasible:
            diagnostics.append(
                Diagnostic(
                    code="ALLOC004",
                    message=(
                        f"infeasible allocation from {result.allocator}: "
                        f"{report.reason}"
                    ),
                    location=where,
                    hint="the allocator kept more variables than R registers fit",
                )
            )
    return report, diagnostics


def assignment_diagnostics(
    problem: AllocationProblem,
    result: AllocationResult,
    assignment: Dict[Vertex, str],
    target: Optional[TargetMachine] = None,
    function_name: Optional[str] = None,
) -> List[Diagnostic]:
    """Diagnostics for a concrete register assignment (legacy check order)."""
    diagnostics: List[Diagnostic] = []
    allocated = set(result.allocated)
    missing = sorted(str(v) for v in allocated if v not in assignment)
    if missing:
        diagnostics.append(
            Diagnostic(
                code="ALLOC005",
                message=(
                    f"allocated variables missing from the register assignment: "
                    f"{missing}"
                ),
                location=Location(function=function_name, operand=", ".join(missing)),
            )
        )
    spilled_assigned = sorted(str(v) for v in result.spilled if v in assignment)
    if spilled_assigned:
        diagnostics.append(
            Diagnostic(
                code="ALLOC006",
                message=(
                    f"spilled variables must not hold a register, but got one: "
                    f"{spilled_assigned}"
                ),
                location=Location(
                    function=function_name, operand=", ".join(spilled_assigned)
                ),
            )
        )
    graph = problem.graph
    # The masks decide the common, clean case; the edge-by-edge walk runs
    # only when they cannot, and emits the diagnostics in its own order.
    if not _clash_free(graph, allocated, assignment):
        for vertex in allocated:
            if vertex not in assignment:
                continue
            for neighbor in graph.neighbors(vertex):
                if (
                    neighbor in allocated
                    and neighbor in assignment
                    and assignment[vertex] == assignment[neighbor]
                    and str(vertex) < str(neighbor)
                ):
                    diagnostics.append(
                        Diagnostic(
                            code="ALLOC007",
                            message=(
                                f"interfering variables {vertex} and {neighbor} share "
                                f"register {assignment[vertex]!r}"
                            ),
                            location=Location(
                                function=function_name,
                                operand=f"{vertex}, {neighbor}",
                            ),
                            hint="interfering variables need distinct registers",
                        )
                    )
    used = {assignment[v] for v in allocated if v in assignment}
    if len(used) > problem.num_registers:
        diagnostics.append(
            Diagnostic(
                code="ALLOC008",
                message=(
                    f"assignment uses {len(used)} distinct registers "
                    f"for R={problem.num_registers}"
                ),
                location=Location(function=function_name),
            )
        )
    if target is not None:
        # The binding file is the *allocatable* one: reserved registers are
        # not valid assignment names even when R covers them (TGT004 flags
        # reserved-register use specifically; this check keeps rejecting any
        # name outside the usable file).
        allocatable = target.allocatable()
        budget = min(problem.num_registers, len(allocatable))
        valid = set(allocatable[:budget])
        foreign = sorted(used - valid)
        if foreign:
            diagnostics.append(
                Diagnostic(
                    code="ALLOC008",
                    message=(
                        f"assignment uses register(s) {foreign} outside target "
                        f"{target.name!r}'s file of {budget} allocatable registers"
                    ),
                    location=Location(
                        function=function_name, operand=", ".join(foreign)
                    ),
                    hint="only the target's first R register names are usable",
                )
            )
    return diagnostics


def _clash_free(graph: Graph, allocated: Set[Vertex], assignment: Dict[Vertex, str]) -> bool:
    """Whether the adjacency rows prove ``ALLOC007`` silent: one mask per
    register holds its allocated holders, and no holder's row meets its own
    register's mask.  ``False`` sends the caller to the edge-by-edge walk,
    which emits the diagnostics: on a clash, or when a holder is not a
    vertex of the graph (the walk raises on it)."""
    rows = graph.rows()
    holders: Dict[str, List[Vertex]] = {}
    for vertex in allocated:
        if vertex in assignment:
            holders.setdefault(assignment[vertex], []).append(vertex)
    for members in holders.values():
        mask = graph.mask_of(members)
        if mask.bit_count() != len(members) or any(rows[i] & mask for i in bit_indices(mask)):
            return False
    return True


# ---------------------------------------------------------------------- #
# spill-code audit
# ---------------------------------------------------------------------- #
def _slot_loads(
    function: Function, spilled: Set[str]
) -> List[Tuple[str, int, VirtualRegister, Constant]]:
    """Reload loads: ``%name.reloadN = load <slot>`` with ``name`` spilled."""
    reloads: List[Tuple[str, int, VirtualRegister, Constant]] = []
    for block in function:
        for index, instruction in enumerate(block.instructions):
            if instruction.opcode is not Opcode.LOAD or not instruction.defs:
                continue
            destination = instruction.defs[0]
            base = destination.name.split(".reload")[0]
            if ".reload" in destination.name and base in spilled:
                address = instruction.uses[0] if instruction.uses else None
                if isinstance(address, Constant):
                    reloads.append((block.label, index, destination, address))
    return reloads


def spill_diagnostics(
    rewritten: Function, spilled: Iterable[str]
) -> List[Diagnostic]:
    """Audit the spill-code rewrite of ``rewritten`` for ``spilled`` names."""
    spilled_names: Set[str] = set(spilled)
    if not spilled_names:
        return []
    diagnostics: List[Diagnostic] = []
    name = rewritten.name

    stored_addresses: Set[Constant] = set()
    for block in rewritten:
        for instruction in block.instructions:
            if instruction.opcode is Opcode.STORE and len(instruction.uses) == 2:
                address = instruction.uses[0]
                if isinstance(address, Constant):
                    stored_addresses.add(address)

    for block in rewritten:
        instructions = block.instructions
        # Positions at which each spilled register is (re)defined in this
        # block; φ targets and (in the entry block) parameters count as
        # defined before the first ordinary instruction.
        defined_before: Set[str] = {
            phi.target.name for phi in block.phis if phi.target.name in spilled_names
        }
        if block.label == rewritten.entry_label:
            defined_before |= {
                p.name for p in rewritten.parameters if p.name in spilled_names
            }
        for index, instruction in enumerate(instructions):
            for reg in instruction.used_registers():
                if (
                    reg.name in spilled_names
                    and reg.name not in defined_before
                    and not (
                        instruction.opcode is Opcode.STORE
                        and len(instruction.uses) == 2
                        and instruction.uses[1] == reg
                    )
                ):
                    diagnostics.append(
                        Diagnostic(
                            code="SPL001",
                            message=(
                                f"use of spilled register {reg} in block "
                                f"{block.label!r} is not reached by a reload or "
                                "an earlier same-block definition"
                            ),
                            location=Location(
                                function=name,
                                block=block.label,
                                instr=len(block.phis) + index,
                                operand=str(reg),
                            ),
                            hint="insert a reload before the use",
                        )
                    )
            for reg in instruction.defined_registers():
                if reg.name in spilled_names:
                    defined_before.add(reg.name)
                    followed = any(
                        later.opcode is Opcode.STORE
                        and len(later.uses) == 2
                        and later.uses[1] == reg
                        and isinstance(later.uses[0], Constant)
                        for later in instructions[index + 1 :]
                    )
                    if not followed:
                        diagnostics.append(
                            Diagnostic(
                                code="SPL002",
                                message=(
                                    f"definition of spilled register {reg} in block "
                                    f"{block.label!r} is not followed by a store "
                                    "to its spill slot"
                                ),
                                location=Location(
                                    function=name,
                                    block=block.label,
                                    instr=len(block.phis) + index,
                                    operand=str(reg),
                                ),
                                hint="store the value right after the definition",
                            )
                        )
        for phi in block.phis:
            if phi.target.name in spilled_names:
                stored_here = any(
                    instruction.opcode is Opcode.STORE
                    and len(instruction.uses) == 2
                    and instruction.uses[1] == phi.target
                    and isinstance(instruction.uses[0], Constant)
                    for instruction in instructions
                )
                if not stored_here:
                    diagnostics.append(
                        Diagnostic(
                            code="SPL002",
                            message=(
                                f"phi definition of spilled register {phi.target} "
                                f"in block {block.label!r} is not followed by a "
                                "store to its spill slot"
                            ),
                            location=Location(
                                function=name, block=block.label, operand=str(phi.target)
                            ),
                        )
                    )
            for pred_label, value in phi.incoming.items():
                if isinstance(value, VirtualRegister) and value.name in spilled_names:
                    diagnostics.append(
                        Diagnostic(
                            code="SPL004",
                            message=(
                                f"phi operand {value} (from {pred_label!r}) is a "
                                "spilled register kept live along the edge "
                                "(spill-everywhere does not reload phi operands)"
                            ),
                            severity=Severity.NOTE,
                            location=Location(
                                function=name, block=block.label, operand=str(value)
                            ),
                        )
                    )

    for label, index, destination, address in _slot_loads(rewritten, spilled_names):
        if address not in stored_addresses:
            diagnostics.append(
                Diagnostic(
                    code="SPL003",
                    message=(
                        f"reload {destination} loads from slot {address} "
                        "which no store ever fills"
                    ),
                    location=Location(
                        function=name,
                        block=label,
                        instr=index,
                        operand=str(destination),
                    ),
                    hint="pair every reload slot with a store",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------- #
# registry wrappers
# ---------------------------------------------------------------------- #
class AllocationChecker(Checker):
    """Result bookkeeping + feasibility (``ALLOC001``–``ALLOC004``)."""

    name = "allocation"
    codes = ("ALLOC001", "ALLOC002", "ALLOC003", "ALLOC004")
    requires = ("problem", "result")

    def run(self, request: CheckRequest) -> List[Diagnostic]:
        context = request.context
        assert context.problem is not None and context.result is not None
        return allocation_diagnostics(
            context.problem, context.result, strict=True, function_name=context.name or None
        )


class AssignmentChecker(Checker):
    """Concrete assignment vs interference and target file (``ALLOC005``–``008``)."""

    name = "assignment-check"
    codes = ("ALLOC005", "ALLOC006", "ALLOC007", "ALLOC008")
    requires = ("problem", "result", "assignment")

    def run(self, request: CheckRequest) -> List[Diagnostic]:
        context = request.context
        assert context.problem is not None and context.result is not None
        assert context.assignment is not None
        return assignment_diagnostics(
            context.problem,
            context.result,
            context.assignment,
            target=context.target,
            function_name=context.name or None,
        )


class SpillChecker(Checker):
    """Spill-code audit of the rewritten function (``SPL001``–``SPL004``)."""

    name = "spill"
    codes = ("SPL001", "SPL002", "SPL003", "SPL004")
    requires = ("rewritten", "result")

    def run(self, request: CheckRequest) -> List[Diagnostic]:
        context = request.context
        assert context.rewritten is not None and context.result is not None
        spilled = {str(v).lstrip("%") for v in context.result.spilled}
        return spill_diagnostics(context.rewritten, spilled)
