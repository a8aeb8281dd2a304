"""The immutable state threaded through a pass pipeline.

A :class:`PipelineContext` carries everything a run has produced so far —
the input function, the lowered (SSA / non-SSA) form, analyses, the packaged
:class:`~repro.alloc.problem.AllocationProblem`, the allocation result, the
register assignment, the rewritten (spill-code) function, and per-stage
stats/timings.  Contexts are frozen: every pass returns a *new* context via
:meth:`evolve`, so intermediate states can be kept, compared and tested
without aliasing surprises.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.alloc.verify import FeasibilityReport
from repro.analysis.live_ranges import LiveInterval
from repro.analysis.dense import DenseLivenessInfo
from repro.graphs.graph import Graph, Vertex
from repro.ir.function import Function
from repro.targets.machine import TargetMachine


@dataclass(frozen=True)
class PipelineContext:
    """Immutable snapshot of one function's trip through the pipeline.

    Fields are filled in stage order; a field is ``None`` until the stage
    that provides it has run (or forever, when that stage was skipped — e.g.
    the IR-rewriting stages on a graph-only input).
    """

    #: the input function, as handed to :meth:`Pipeline.run` (pre-lowering).
    function: Optional[Function] = None
    #: instance name used for problems, records and reports.
    name: str = ""
    #: resolved target machine (``None`` for raw-problem entry).
    target: Optional[TargetMachine] = None
    #: register count override; ``None`` means the target's register file.
    num_registers: Optional[int] = None
    #: the lowered function the analyses ran on (SSA or non-SSA form).
    lowered: Optional[Function] = None
    #: liveness analysis of ``lowered`` (bitmasks over its register index).
    liveness: Optional[DenseLivenessInfo] = None
    #: spill-cost map of ``lowered`` (register -> weight).
    costs: Optional[Dict[Any, float]] = None
    #: weighted interference graph.
    graph: Optional[Graph] = None
    #: linearised live intervals (for the linear-scan family).
    intervals: Optional[List[LiveInterval]] = None
    #: the packaged allocation problem.
    problem: Optional[AllocationProblem] = None
    #: the allocation result (spill set + cost).
    result: Optional[AllocationResult] = None
    #: register assignment of the allocated variables (vertex -> reg name).
    assignment: Optional[Dict[Vertex, str]] = None
    #: the function with spill code inserted (and load/store-optimized when
    #: the ``loadstore_opt`` stage ran).
    rewritten: Optional[Function] = None
    #: feasibility report from the ``verify`` stage.
    report: Optional[FeasibilityReport] = None
    #: differential-execution report from the opt-in ``oracle`` stage (a
    #: :class:`repro.oracle.differential.DifferentialReport`; typed loosely
    #: to keep the pipeline importable without the oracle package loaded).
    oracle: Optional[Any] = None
    #: non-error diagnostics accumulated by the static machine-verifier when
    #: the spec enables it (``check="boundaries"``/``"each"``); error-severity
    #: findings raise :class:`repro.check.CheckError` instead of landing here.
    diagnostics: Tuple[Any, ...] = ()
    #: per-stage statistics, keyed by stage name.
    stage_stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: per-stage wall-clock seconds, keyed by stage name (insertion order =
    #: execution order).  Skipped stages appear with a 0.0 timing.
    timings: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # evolution (stages never mutate a context)
    # ------------------------------------------------------------------ #
    def evolve(self, **updates: Any) -> "PipelineContext":
        """Return a copy with ``updates`` applied (the only way to change one)."""
        return dataclasses.replace(self, **updates)

    def with_stage(
        self,
        stage: str,
        seconds: float,
        stats: Optional[Mapping[str, Any]] = None,
        **updates: Any,
    ) -> "PipelineContext":
        """Record one completed stage: its timing, stats and field updates."""
        timings = dict(self.timings)
        timings[stage] = seconds
        stage_stats = dict(self.stage_stats)
        if stats is not None:
            stage_stats[stage] = dict(stats)
        return self.evolve(timings=timings, stage_stats=stage_stats, **updates)

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    @property
    def spill_cost(self) -> Optional[float]:
        """Spill cost of the allocation, once the allocate stage ran."""
        return self.result.spill_cost if self.result is not None else None

    @property
    def stages_run(self) -> Tuple[str, ...]:
        """Stage names in execution order (skipped stages included)."""
        return tuple(self.timings)

    def rewritten_ir(self) -> Optional[str]:
        """Textual form of the rewritten function, if the run produced one."""
        if self.rewritten is None:
            return None
        from repro.ir.printer import print_function

        return print_function(self.rewritten)

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable summary of the run (the ``--emit json`` payload)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "target": self.target.name if self.target else None,
            "stages": list(self.timings),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "stage_stats": {k: dict(v) for k, v in self.stage_stats.items()},
        }
        if self.problem is not None:
            out["num_variables"] = len(self.problem.graph)
            out["num_registers"] = self.problem.num_registers
            out["max_pressure"] = self.problem.max_pressure
        if self.result is not None:
            out["allocator"] = self.result.allocator
            out["num_allocated"] = self.result.num_allocated
            out["num_spilled"] = self.result.num_spilled
            out["spill_cost"] = self.result.spill_cost
            out["spilled"] = sorted(str(v) for v in self.result.spilled)
        if self.assignment is not None:
            out["assignment"] = {str(v): r for v, r in sorted(self.assignment.items(), key=lambda kv: str(kv[0]))}
        if self.report is not None:
            out["verify"] = {
                "feasible": self.report.feasible,
                "exact": self.report.exact,
                "reason": self.report.reason,
            }
        if self.rewritten is not None:
            out["rewritten_ir"] = self.rewritten_ir()
        if self.diagnostics:
            out["diagnostics"] = [d.to_dict() for d in self.diagnostics]
        return out
