"""Set-based liveness: the reference the dense kernel is checked against.

Computes per-block live-in/live-out sets with the usual backward dataflow,
handling φ-functions with SSA edge semantics: a φ's operand is live-out of
the corresponding predecessor (not live-in of the φ's block), and the φ's
result is live-in of its block.  Also exposes *MaxLive*, the maximal register
pressure, which in the decoupled approach is the criterion deciding whether
an allocation will color without spills.

The pipeline runs the bitmask kernel (:mod:`repro.analysis.dense`).  This
module is the from-scratch recomputation the liveness checker
(:mod:`repro.check.dataflow`, LIV002/LIV003) compares the pipeline's masks
with, and :func:`validate_phi_edges` is shared by both analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.errors import PhiEdgeError
from repro.ir.function import Function
from repro.ir.values import VirtualRegister

RegisterSet = Set[VirtualRegister]


def validate_phi_edges(function: Function, cfg: ControlFlowGraph | None = None) -> ControlFlowGraph:
    """Check that every φ incoming label is an actual CFG predecessor.

    A φ edge naming a block that does not branch to the φ's block (stale
    after CFG surgery, or a plain typo) must be rejected: treating it as a
    use would extend live ranges along a non-existent edge, and ignoring it
    would silently drop a live-in value.  Raises
    :class:`~repro.errors.PhiEdgeError`; returns the (possibly freshly
    built) :class:`ControlFlowGraph` so callers can reuse it.
    """
    if cfg is None:
        cfg = ControlFlowGraph(function)
    predecessors = cfg.predecessors
    for block in function:
        allowed = predecessors[block.label]
        for phi in block.phis:
            for pred_label in phi.incoming:
                if pred_label not in allowed:
                    raise PhiEdgeError(
                        f"phi {phi.target} in block {block.label!r} of function "
                        f"{function.name!r} has incoming edge from {pred_label!r}, "
                        f"which is not a CFG predecessor "
                        f"(predecessors: {sorted(allowed)})"
                    )
    return cfg


@dataclass
class LivenessInfo:
    """Result of liveness analysis for one function, as register sets."""

    live_in: Dict[str, RegisterSet]
    live_out: Dict[str, RegisterSet]
    #: ``uses[label]`` / ``defs[label]`` as used by the dataflow (φs excluded
    #: from ``uses``; φ results included in ``defs``).
    defs: Dict[str, RegisterSet] = field(default_factory=dict)
    upward_exposed: Dict[str, RegisterSet] = field(default_factory=dict)


def _block_local_sets(function: Function) -> Tuple[Dict[str, RegisterSet], Dict[str, RegisterSet]]:
    """Compute per-block upward-exposed uses and defs (φ-aware)."""
    upward: Dict[str, RegisterSet] = {}
    defs: Dict[str, RegisterSet] = {}
    for block in function:
        exposed: RegisterSet = set()
        defined: RegisterSet = set()
        # φ results are defined at the top of the block; φ operands are *not*
        # uses in this block (they count on the predecessor edge).
        for phi in block.phis:
            defined.add(phi.target)
        for instruction in block.instructions:
            for reg in instruction.used_registers():
                if reg not in defined:
                    exposed.add(reg)
            for reg in instruction.defined_registers():
                defined.add(reg)
        upward[block.label] = exposed
        defs[block.label] = defined
    return upward, defs


def _phi_uses_per_predecessor(
    function: Function, cfg: ControlFlowGraph | None = None
) -> Dict[str, RegisterSet]:
    """Map predecessor label -> registers used by φs along that edge.

    Incoming labels are validated against the actual CFG predecessors of
    each φ's block (:func:`validate_phi_edges`): a stale label would
    otherwise be silently recorded under a non-predecessor (or an unknown
    block) and never flow anywhere, corrupting liveness.
    """
    validate_phi_edges(function, cfg)
    uses: Dict[str, RegisterSet] = {label: set() for label in function.block_labels()}
    for block in function:
        for phi in block.phis:
            for pred_label, value in phi.incoming.items():
                if isinstance(value, VirtualRegister):
                    uses[pred_label].add(value)
    return uses


def liveness(function: Function) -> LivenessInfo:
    """Compute live-in/live-out sets for every block of ``function``.

    Raises :class:`~repro.errors.PhiEdgeError` when a φ names an incoming
    label that is not a CFG predecessor of its block.
    """
    cfg = ControlFlowGraph(function)
    upward, defs = _block_local_sets(function)
    phi_uses = _phi_uses_per_predecessor(function, cfg)
    phi_defs: Dict[str, RegisterSet] = {
        block.label: {phi.target for phi in block.phis} for block in function
    }

    live_in: Dict[str, RegisterSet] = {label: set() for label in function.block_labels()}
    live_out: Dict[str, RegisterSet] = {label: set() for label in function.block_labels()}

    # Iterate to a fix point over postorder (fast convergence for backward
    # problems).
    order = cfg.postorder()
    changed = True
    while changed:
        changed = False
        for label in order:
            out: RegisterSet = set(phi_uses.get(label, set()))
            for succ in cfg.successors[label]:
                # live-in of the successor minus its φ definitions flows back;
                # φ operands were already accounted via phi_uses.
                out |= live_in[succ] - phi_defs[succ]
            new_in = upward[label] | (out - defs[label]) | phi_defs[label]
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True

    return LivenessInfo(live_in=live_in, live_out=live_out, defs=defs, upward_exposed=upward)


def max_live(function: Function, info: LivenessInfo | None = None) -> int:
    """Return MaxLive: the maximum number of simultaneously live variables.

    Register pressure is sampled at every program point: block entries
    (live-in, including φ results) and after every instruction.  Values that
    are defined but never live (dead definitions) still need a register at
    their definition point, so the pressure right after a definition counts
    the defined register even if it is not in the live-out set.
    """
    if info is None:
        info = liveness(function)
    pressure = 0
    for block in function:
        pressure = max(pressure, len(info.live_in[block.label]))
        live = set(info.live_out[block.label])
        for instruction in reversed(block.instructions):
            defined = instruction.defined_registers()
            # Point just after the instruction: defined registers occupy a
            # register here even when immediately dead.
            pressure = max(pressure, len(live | set(defined)))
            for reg in defined:
                live.discard(reg)
            for reg in instruction.used_registers():
                live.add(reg)
            pressure = max(pressure, len(live))
    return pressure
