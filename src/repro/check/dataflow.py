"""Liveness-consistency lint (codes ``LIV001``–``LIV003``).

The pipeline's liveness stage runs the dense bitset kernel
(:mod:`repro.analysis.dense`) and the context carries its masks.  This
checker expands them into register sets (the only place a set view of
pipeline liveness is built, and only with checking on) and statically
cross-validates them:

* ``LIV001`` — a block's stored live-out violates the backward transfer
  equation ``live_out(B) = phi_uses(B) ∪ ⋃_S (live_in(S) − phi_defs(S))``
  (φ-edge SSA semantics, exactly as :func:`repro.analysis.liveness.liveness`
  defines them);
* ``LIV002`` — the stored sets disagree with a from-scratch recomputation by
  the set-based reference analysis (the static analogue of the dense-kernel
  oracle);
* ``LIV003`` (note) — MaxLive exceeds the declared register count, i.e. the
  allocation cannot be spill-free (informational: that is precisely the
  situation the paper's spiller exists for).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dense import DenseLivenessInfo
from repro.analysis.liveness import LivenessInfo, liveness, max_live
from repro.check.cfg import cfg_diagnostics, has_structural_errors
from repro.check.diagnostics import Diagnostic, Location, Severity
from repro.check.registry import Checker, CheckRequest
from repro.ir.function import Function
from repro.ir.values import VirtualRegister


def _sorted_names(regs: Set[VirtualRegister]) -> List[str]:
    return sorted(str(reg) for reg in regs)


def liveness_diagnostics(
    function: Function,
    info: LivenessInfo,
    num_registers: int | None = None,
) -> List[Diagnostic]:
    """Cross-validate ``info`` against ``function``; lint MaxLive vs ``R``."""
    structural = cfg_diagnostics(function, notes=False)
    if has_structural_errors(structural):
        return []

    diagnostics: List[Diagnostic] = []
    cfg = ControlFlowGraph(function)
    phi_defs: Dict[str, Set[VirtualRegister]] = {
        block.label: {phi.target for phi in block.phis} for block in function
    }
    phi_uses: Dict[str, Set[VirtualRegister]] = {
        label: set() for label in function.block_labels()
    }
    for block in function:
        for phi in block.phis:
            for pred_label, value in phi.incoming.items():
                if isinstance(value, VirtualRegister) and pred_label in phi_uses:
                    phi_uses[pred_label].add(value)

    for label in function.block_labels():
        if label not in info.live_out or label not in info.live_in:
            diagnostics.append(
                Diagnostic(
                    code="LIV002",
                    message=f"liveness info has no entry for block {label!r}",
                    location=Location(function=function.name, block=label),
                )
            )
            continue
        expected_out: Set[VirtualRegister] = set(phi_uses[label])
        for succ in cfg.successors[label]:
            expected_out |= info.live_in.get(succ, set()) - phi_defs.get(succ, set())
        actual_out = info.live_out[label]
        if actual_out != expected_out:
            extra = _sorted_names(actual_out - expected_out)
            missing = _sorted_names(expected_out - actual_out)
            diagnostics.append(
                Diagnostic(
                    code="LIV001",
                    message=(
                        f"live-out of block {label!r} violates the transfer "
                        f"equation (extra: {extra}, missing: {missing})"
                    ),
                    location=Location(function=function.name, block=label),
                    hint="recompute liveness after the last CFG/IR mutation",
                )
            )

    reference = liveness(function)
    if not any(d.code == "LIV001" for d in diagnostics):
        for label in function.block_labels():
            for kind, stored, fresh in (
                ("live-in", info.live_in.get(label, set()), reference.live_in[label]),
                ("live-out", info.live_out.get(label, set()), reference.live_out[label]),
            ):
                if stored != fresh:
                    diagnostics.append(
                        Diagnostic(
                            code="LIV002",
                            message=(
                                f"stored {kind} of block {label!r} disagrees with "
                                f"the reference analysis (stored: "
                                f"{_sorted_names(set(stored))}, reference: "
                                f"{_sorted_names(set(fresh))})"
                            ),
                            location=Location(function=function.name, block=label),
                            hint="the producing kernel is miscomputing liveness",
                        )
                    )

    if num_registers is not None:
        pressure = max_live(function, reference)
        if pressure > num_registers:
            diagnostics.append(
                Diagnostic(
                    code="LIV003",
                    message=(
                        f"MaxLive {pressure} exceeds the declared register "
                        f"count R={num_registers}; spilling is unavoidable"
                    ),
                    severity=Severity.NOTE,
                    location=Location(function=function.name),
                )
            )
    return diagnostics


class LivenessChecker(Checker):
    """Registry wrapper cross-validating the context's liveness info."""

    name = "liveness"
    codes = ("LIV001", "LIV002", "LIV003")
    requires = ("lowered", "liveness")

    def run(self, request: CheckRequest) -> List[Diagnostic]:
        context = request.context
        function = context.lowered
        assert isinstance(function, Function)
        dense = context.liveness
        assert isinstance(dense, DenseLivenessInfo)
        set_of = dense.index.set_of
        info = LivenessInfo(
            live_in={label: set_of(mask) for label, mask in dense.live_in.items()},
            live_out={label: set_of(mask) for label, mask in dense.live_out.items()},
        )
        registers = context.num_registers
        if registers is None and context.target is not None:
            registers = context.target.num_registers
        return liveness_diagnostics(function, info, num_registers=registers)
