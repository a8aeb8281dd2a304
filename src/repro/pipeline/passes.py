"""Pipeline passes: the stage protocol, the registry and the built-ins.

The canonical chain mirrors the paper's decoupled design::

    liveness -> interference -> extract -> allocate -> assign
             -> spill_code -> loadstore_opt -> verify

Each stage is a :class:`Pass`: it declares which context fields it
``requires`` and ``provides``, and :meth:`Pass.run` maps an immutable
:class:`~repro.pipeline.context.PipelineContext` to a new one.  Third-party
stages register through :func:`register_pass` — the same mechanism as
:func:`repro.alloc.base.register_allocator` — and can then be named in any
pipeline spec.

The ``allocate`` stage is the memoization point: with a store attached, its
output is keyed by the experiment store's ``(problem_digest, allocator,
allocator_version, R)`` contract (see :mod:`repro.store.keys`), so the engine
and :func:`repro.experiments.runner.run_experiment` share one cache — a sweep
warms the engine and a batch run warms the sweep.
"""

from __future__ import annotations

import abc
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Type

from repro.alloc.assignment import assign_constrained, assign_registers, assign_registers_by_peo
from repro.alloc.base import Allocator, get_allocator
from repro.alloc.constraints import auto_constraints
from repro.alloc.load_store_opt import remove_redundant_reloads
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.alloc.spill_code import insert_spill_code
from repro.alloc.verify import check_allocation
from repro.analysis.dense import (
    build_interference_graph_dense,
    dense_live_intervals,
    dense_liveness,
)
from repro.analysis.spill_costs import spill_costs
from repro.analysis.ssa_construction import construct_ssa
from repro.analysis.ssa_destruction import coalesce_copies, destruct_ssa
from repro.errors import AllocationError, PipelineError
from repro.pipeline.context import PipelineContext
from repro.store.keys import CellKey, problem_digest
from repro.telemetry.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - cycle guard (runner imports us)
    from repro.experiments.runner import InstanceRecord
    from repro.pipeline.spec import PipelineSpec
    from repro.store.base import ExperimentStore


# ---------------------------------------------------------------------- #
# the allocate kernel, shared with the experiment runner
# ---------------------------------------------------------------------- #
def run_allocator(
    problem: AllocationProblem,
    allocator: Allocator,
    verify: bool = False,
) -> Tuple[AllocationResult, float]:
    """One timed allocator invocation, optionally verified.

    This is the single place an allocator actually runs on a problem: the
    pipeline's ``allocate`` stage and the experiment runner's per-cell loop
    (:func:`repro.experiments.runner.run_cells`) both call it.
    """
    if problem.constraints is not None and not allocator.supports_constraints:
        raise AllocationError(
            f"allocator {allocator.name!r} does not support constrained "
            "problems (no per-variable class/pre-color handling); use a "
            "constraint-aware allocator (NL/BL/FPL/BFPL/Optimal-BB)"
        )
    start = time.perf_counter()
    result = allocator.allocate(problem)
    elapsed = time.perf_counter() - start
    if verify:
        check_allocation(problem, result, strict=False)
    return result, elapsed


def allocate_cell_key(
    problem: AllocationProblem,
    allocator: Allocator,
    target: Optional[str] = None,
) -> CellKey:
    """The store cell key of one allocate-stage output (PR 2's contract)."""
    return CellKey(
        problem_digest=problem_digest(problem, target=target, registers=problem.num_registers),
        allocator=allocator.name,
        allocator_version=allocator.version,
        num_registers=problem.num_registers,
    )


def result_from_record(record: "InstanceRecord", problem: AllocationProblem) -> Optional[AllocationResult]:
    """Rebuild an :class:`AllocationResult` from a cached store record.

    Returns ``None`` when the record cannot stand in for an allocator call:
    records written before the engine existed carry no spill *set* (only its
    cost), and a record whose spilled names do not all resolve against the
    problem's graph is foreign.  Both count as cache misses.
    """
    if record.spilled is None:
        return None
    by_name = {str(v): v for v in problem.graph.vertices()}
    try:
        spilled = [by_name[name] for name in record.spilled]
    except KeyError:
        return None
    spilled_set = set(spilled)
    allocated = [v for v in problem.graph.vertices() if v not in spilled_set]
    return AllocationResult.from_sets(
        allocator=record.allocator,
        num_registers=problem.num_registers,
        allocated=allocated,
        spilled=spilled,
        spill_cost=problem.spill_cost_of(spilled),
        stats=record.stats,
    )


# ---------------------------------------------------------------------- #
# pass protocol + registry
# ---------------------------------------------------------------------- #
class Pass(abc.ABC):
    """One named pipeline stage.

    Subclasses declare their dataflow through three tuples of
    :class:`PipelineContext` field names:

    ``requires``
        fields that must be non-``None`` before the stage runs;
    ``provides``
        fields the stage fills — a stage whose provides are all already
        present is skipped (that is how raw-problem entry bypasses the
        front-end);
    ``skip_without``
        the subset of ``requires`` that act as skip triggers: when any of
        them is absent the stage is a clean skip rather than an error (e.g.
        the IR-rewriting stages on a graph-only run).  A missing requirement
        outside this set is a wiring error and raises.

    Passes additionally declare *invariant contracts* for the static
    machine-verifier (:mod:`repro.check`) as tuples of checker-registry
    names:

    ``check_requires``
        invariants that must hold before the stage runs;
    ``check_preserves``
        invariants guaranteed to hold after it ran.

    With ``PipelineSpec(check="each")`` the engine runs the named checkers
    around every executed stage and raises
    :class:`repro.check.CheckError` — diagnostics naming the offending pass
    — on any error-severity finding (LLVM's ``-verify-each``).  With
    ``check="off"`` (the default) no checker is ever invoked.
    """

    name: str = "abstract"
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()
    skip_without: Tuple[str, ...] = ()
    check_requires: Tuple[str, ...] = ()
    check_preserves: Tuple[str, ...] = ()

    @abc.abstractmethod
    def run(
        self,
        context: PipelineContext,
        spec: "PipelineSpec",
        store: Optional["ExperimentStore"] = None,
    ) -> PipelineContext:
        """Execute the stage and return the evolved context.

        Implementations must treat ``context`` as immutable and return
        ``context.with_stage(self.name, seconds, stats, **fields)``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


_PASS_REGISTRY: Dict[str, Callable[[], Pass]] = {}


def register_pass(name: str, factory: Callable[[], Pass] | Type[Pass]) -> None:
    """Register a pass factory under ``name`` (case-insensitive).

    The registry is shared by every :class:`~repro.pipeline.engine.Pipeline`:
    a registered stage can be named in any spec's ``stages`` list, exactly
    like :func:`repro.alloc.base.register_allocator` makes an allocator
    available to every sweep.
    """
    _PASS_REGISTRY[name.lower()] = factory  # type: ignore[assignment]


def get_pass(name: str) -> Pass:
    """Instantiate the pass registered under ``name``."""
    try:
        factory = _PASS_REGISTRY[name.lower()]
    except KeyError:
        raise PipelineError(
            f"unknown pipeline stage {name!r}; available: {available_passes()}"
        ) from None
    return factory()


def available_passes() -> List[str]:
    """Names of all registered passes, sorted."""
    return sorted(_PASS_REGISTRY)


def is_registered_pass(name: str) -> bool:
    """Whether ``name`` resolves in the pass registry."""
    return name.lower() in _PASS_REGISTRY


# ---------------------------------------------------------------------- #
# built-in stages
# ---------------------------------------------------------------------- #
class LivenessPass(Pass):
    """Lower the function to the spec's form and run liveness + spill costs.

    The SSA (or non-SSA) lowering happens here because liveness is the first
    analysis that needs the lowered function; the pre-lowering input stays
    available as ``context.function``.  Non-SSA lowering destructs SSA with
    φ-web coalescing, then coalesces register copies.  Liveness runs on the
    bitset kernel (:mod:`repro.analysis.dense`): the produced
    :class:`~repro.analysis.liveness.LivenessInfo` equals the set-based
    reference's live-in/live-out sets and carries the dense masks for the
    interference stage.  Its sets are expanded from the masks only when a
    block is read (the checker reads them; no default stage does).
    """

    name = "liveness"
    requires = ("function", "target")
    provides = ("lowered", "liveness", "costs")
    skip_without = ("function", "target")
    check_requires = ("cfg", "ops")
    check_preserves = ("cfg", "ssa", "ops", "liveness")

    def run(self, context, spec, store=None):
        start = time.perf_counter()
        ssa = construct_ssa(context.function)
        lowered = ssa if spec.ssa else coalesce_copies(destruct_ssa(ssa))
        info = dense_liveness(lowered).to_info()
        target = context.target
        costs = spill_costs(
            lowered, store_cost=target.store_cost, load_cost=target.load_cost
        )
        return context.with_stage(
            self.name,
            time.perf_counter() - start,
            stats={
                "mode": "ssa" if spec.ssa else "non-ssa",
                "blocks": len(lowered),
            },
            lowered=lowered,
            liveness=info,
            costs=costs,
        )


class InterferencePass(Pass):
    """Build the weighted interference graph and the live intervals.

    The graph's bitmask rows (the set-based reference's vertices, edges and
    weights) are built from the liveness stage's dense masks.  A context whose liveness carries no
    masks (one a caller built by hand) has them computed here.
    """

    name = "interference"
    requires = ("lowered", "liveness", "costs")
    provides = ("graph", "intervals")
    skip_without = ("lowered",)
    check_requires = ("liveness",)
    check_preserves = ("interference",)

    def run(self, context, spec, store=None):
        start = time.perf_counter()
        dense_info = context.liveness.dense
        graph = build_interference_graph_dense(
            context.lowered, info=dense_info, weights=context.costs
        )
        intervals = dense_live_intervals(context.lowered, info=dense_info)
        return context.with_stage(
            self.name,
            time.perf_counter() - start,
            stats={"vertices": len(graph), "edges": graph.num_edges()},
            graph=graph,
            intervals=intervals,
        )


class ExtractPass(Pass):
    """Package graph + intervals into an :class:`AllocationProblem`.

    With ``spec.constrain`` set, machine-model constraints (register
    classes, pre-colorings) are derived deterministically from the target's
    register file via :func:`repro.alloc.constraints.auto_constraints` and
    attached to the problem; otherwise the problem is unconstrained and its
    digest byte-identical to historical runs.
    """

    name = "extract"
    requires = ("graph",)
    provides = ("problem",)
    skip_without = ("graph",)

    def run(self, context, spec, store=None):
        start = time.perf_counter()
        registers = context.num_registers
        if registers is None:
            if context.target is None:
                raise PipelineError(
                    "extract stage needs a register count: set spec.registers "
                    "or give the pipeline a target"
                )
            registers = context.target.num_registers
        constraints = None
        if spec.constrain:
            if context.target is None:
                raise PipelineError(
                    "extract stage needs a target machine to derive "
                    "constraints from: spec.constrain requires spec.target"
                )
            constraints = auto_constraints(
                context.graph, context.target, fraction=spec.constrain
            )
        problem = AllocationProblem(
            graph=context.graph,
            num_registers=registers,
            intervals=context.intervals,
            name=context.name,
            constraints=constraints,
        )
        return context.with_stage(
            self.name,
            time.perf_counter() - start,
            stats={
                "variables": len(problem.graph),
                "num_registers": registers,
                "constrained": constraints is not None,
            },
            problem=problem,
        )


class AllocatePass(Pass):
    """Run the spec's allocator — the memoized stage.

    With a store attached, the output is first looked up under the shared
    ``(problem_digest, allocator, allocator_version, R)`` cell key; a hit
    rebuilds the :class:`AllocationResult` without invoking the allocator,
    a miss computes, persists and returns.  ``stats["cache"]`` records which
    happened.
    """

    name = "allocate"
    requires = ("problem",)
    provides = ("result",)
    check_preserves = ("allocation",)

    #: per-pass-instance allocator cache (a Pipeline owns one pass instance,
    #: so a batch resolves/instantiates the allocator once, like run_cells).
    _allocator: Optional[Allocator] = None
    _allocator_for: Optional[str] = None

    def _resolve_allocator(self, name: str) -> Allocator:
        if self._allocator is None or self._allocator_for != name:
            self._allocator = get_allocator(name)
            self._allocator_for = name
        return self._allocator

    def run(self, context, spec, store=None):
        start = time.perf_counter()
        problem = context.problem
        # Stale-cache guard: a mutated graph must never be keyed (or solved)
        # through caches derived from its previous shape.
        problem.ensure_cache_coherent()
        allocator = self._resolve_allocator(spec.allocator)
        target_name = context.target.name if context.target is not None else None

        cache = "off"
        key: Optional[CellKey] = None
        result: Optional[AllocationResult] = None
        if store is not None:
            key = allocate_cell_key(problem, allocator, target=target_name)
            record = store.get(key)
            if record is not None:
                result = result_from_record(record, problem)
            cache = "hit" if result is not None else "miss"

        tracer = current_tracer()
        if tracer.enabled:
            # Run-level cache counters, declared (at zero) even with no store
            # attached so traces stay comparable across configurations; the
            # per-backend ``store.<backend>.*`` counters come from the store
            # layer itself.
            tracer.count("store.hit", 1 if cache == "hit" else 0)
            tracer.count("store.miss", 1 if cache == "miss" else 0)

        if result is None:
            result, elapsed = run_allocator(problem, allocator)
            if store is not None and key is not None:
                from repro.experiments.runner import InstanceRecord

                store.put(
                    key,
                    InstanceRecord.from_result(
                        problem,
                        result,
                        instance=context.name or problem.name,
                        program=context.name or problem.name,
                        allocator=allocator.name,
                        elapsed=elapsed,
                    ),
                )

        stats = {
            "allocator": allocator.name,
            "cache": cache,
            "num_spilled": result.num_spilled,
            "spill_cost": result.spill_cost,
        }
        return context.with_stage(
            self.name, time.perf_counter() - start, stats=stats, result=result
        )


class AssignPass(Pass):
    """Map the allocated variables to concrete registers (coloring).

    On a chordal problem the stage tree-scans along the problem's own PEO
    (the order the allocator already used) restricted to the allocated
    variables — no induced-subgraph copy, no second elimination order.  The
    tree-scan always fits a correct allocation, so a failure is an upstream
    allocator bug and the ``verify`` stage will raise.  On general graphs
    the greedy coloring of the induced subgraph is only a heuristic: it may
    exceed ``R`` even for feasible allocations, in which case the stage
    records the failure in its stats and leaves ``assignment`` unset instead
    of aborting the pipeline — verification remains the authority on
    feasibility.
    """

    name = "assign"
    requires = ("problem", "result")
    provides = ("assignment",)
    check_preserves = ("assignment-check", "target")

    def run(self, context, spec, store=None):
        start = time.perf_counter()
        problem = context.problem
        # Reserved registers are enforced here: coloring indices map into the
        # target's *allocatable* file, never the raw r0..rN numbering.
        register_names = (
            context.target.allocatable_names() if context.target is not None else None
        )
        try:
            if problem.constraints is not None:
                assignment = assign_constrained(
                    problem.graph,
                    context.result.allocated,
                    problem.constraints,
                    problem.num_registers,
                    hint=context.result.stats.get("register_layers"),
                )
            elif problem.is_chordal:
                assignment = assign_registers_by_peo(
                    problem.graph,
                    problem.peo,
                    context.result.allocated,
                    problem.num_registers,
                    register_names=register_names,
                )
            else:
                assignment = assign_registers(
                    problem.graph,
                    context.result.allocated,
                    problem.num_registers,
                    register_names=register_names,
                )
        except AllocationError as error:
            return context.with_stage(
                self.name,
                time.perf_counter() - start,
                stats={"assigned": False, "reason": str(error)},
            )
        return context.with_stage(
            self.name,
            time.perf_counter() - start,
            stats={"assigned": True, "registers_used": len(set(assignment.values()))},
            assignment=assignment,
        )


class SpillCodePass(Pass):
    """Insert spill-everywhere loads/stores for the spilled variables."""

    name = "spill_code"
    requires = ("lowered", "result")
    provides = ("rewritten",)
    skip_without = ("lowered",)
    check_preserves = ("spill",)

    def run(self, context, spec, store=None):
        start = time.perf_counter()
        spilled_names = sorted(str(v) for v in context.result.spilled)
        rewritten, stats = insert_spill_code(context.lowered, spilled_names)
        return context.with_stage(
            self.name,
            time.perf_counter() - start,
            stats={"loads": stats["loads"], "stores": stats["stores"]},
            rewritten=rewritten,
        )


class LoadStoreOptPass(Pass):
    """Remove locally redundant reloads from the rewritten function."""

    name = "loadstore_opt"
    requires = ("rewritten",)
    provides = ()
    skip_without = ("rewritten",)
    check_requires = ("spill",)
    check_preserves = ("spill",)

    def run(self, context, spec, store=None):
        start = time.perf_counter()
        optimized, removed = remove_redundant_reloads(context.rewritten)
        return context.with_stage(
            self.name,
            time.perf_counter() - start,
            stats={"loads_removed": removed},
            rewritten=optimized,
        )


class VerifyPass(Pass):
    """Validate the allocation (bookkeeping + feasibility, strict).

    On a chordal problem the feasibility verdict takes the clique number of
    the allocated subgraph from the problem's own PEO restricted to the
    allocated variables (:func:`repro.alloc.verify.feasibility_by_peo`).
    When the ``assign`` stage produced a concrete assignment, it is also
    checked edge by edge against the interference graph (one register mask
    against the rows on a dense graph) *and* against the target's register
    file (register count and names) via
    :func:`repro.check.assignment_diagnostics` — which proves the
    allocation R-colourable without trusting the PEO — and against the
    machine model (classes, aliasing, pre-colorings, reserved set) via
    :func:`repro.check.targets.target_diagnostics`.  The first
    error-severity ``ALLOC*`` or ``TGT*`` finding raises
    :class:`InvalidAllocationError`.
    """

    name = "verify"
    requires = ("problem", "result")
    provides = ("report",)

    def run(self, context, spec, store=None):
        # Lazily imported like the oracle stage: keeps pipeline import time
        # free of the machine-verifier package on check-free runs.
        from repro.check.allocation import assignment_diagnostics
        from repro.check.targets import target_diagnostics
        from repro.errors import InvalidAllocationError

        start = time.perf_counter()
        report = check_allocation(context.problem, context.result, strict=True)
        assignment_checked = False
        target_checked = False
        if context.assignment is not None:
            for diagnostic in assignment_diagnostics(
                context.problem, context.result, context.assignment, target=context.target
            ):
                if diagnostic.is_error:
                    raise InvalidAllocationError(diagnostic.message)
            assignment_checked = True
            findings = target_diagnostics(
                context.problem,
                result=context.result,
                assignment=context.assignment,
                target=context.target,
                function_name=context.name or None,
            )
            errors = [d for d in findings if d.is_error]
            if errors:
                raise InvalidAllocationError(errors[0].render())
            target_checked = True
        return context.with_stage(
            self.name,
            time.perf_counter() - start,
            stats={
                "feasible": report.feasible,
                "exact": report.exact,
                "assignment_checked": assignment_checked,
                "target_checked": target_checked,
            },
            report=report,
        )


class OraclePass(Pass):
    """Differential execute-before/execute-after semantic check.

    Interprets the input function and the spill-rewritten function on the
    oracle's deterministic argument sets and raises
    :class:`~repro.errors.OracleError` when any observable differs (return
    value, visible memory, store trace, termination).  Opt-in: append
    ``oracle`` to a pipeline's stage chain (``--pipeline
    "...,spill_code,loadstore_opt,verify,oracle"``) or run campaigns through
    :mod:`repro.oracle`.
    """

    name = "oracle"
    requires = ("function", "rewritten")
    provides = ("oracle",)
    skip_without = ("function", "rewritten")

    def run(self, context, spec, store=None):
        # Imported lazily: repro.oracle depends on repro.ir only, but going
        # through the package keeps pipeline import time free of oracle code.
        from repro.oracle.differential import diff_functions, raise_on_mismatch

        start = time.perf_counter()
        report = diff_functions(context.function, context.rewritten)
        raise_on_mismatch(report, context.name or context.function.name)
        return context.with_stage(
            self.name,
            time.perf_counter() - start,
            stats={
                "checks": len(report.pairs),
                "mismatches": len(report.mismatches),
                "spill_overhead": report.spill_overhead,
            },
            oracle=report,
        )


#: the canonical full chain, in order.
DEFAULT_STAGES: Tuple[str, ...] = (
    "liveness",
    "interference",
    "extract",
    "allocate",
    "assign",
    "spill_code",
    "loadstore_opt",
    "verify",
)

for _cls in (
    LivenessPass,
    InterferencePass,
    ExtractPass,
    AllocatePass,
    AssignPass,
    SpillCodePass,
    LoadStoreOptPass,
    VerifyPass,
    OraclePass,
):
    register_pass(_cls.name, _cls)
