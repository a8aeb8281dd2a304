"""Dense bitset dataflow kernel: liveness, interference and live intervals.

Every interference graph and every set of live intervals the program builds
from a function comes from this module.  A register set is one
arbitrary-width Python integer over a shared
:class:`~repro.analysis.vr_index.VRIndex`, the backward liveness fixpoint is
a predecessor-driven worklist over masks, interference construction ORs
definition points against live masks — emitting the whole adjacency as the
bitmask rows of a :class:`~repro.graphs.graph.Graph`
(:meth:`~repro.graphs.graph.Graph.from_rows`) in one pass, without
materializing a single Python set — and the live intervals fall out of two
mask sweeps.  :mod:`repro.analysis.interference` and
:mod:`repro.analysis.live_ranges` export the two builders under their
classic names.

Equivalence guarantee
---------------------
The kernel computes exactly what the classical set formulations compute:
the live-in/live-out sets of :func:`repro.analysis.liveness.liveness`, and
the Chaitin interference graph (vertices, edges, weights and vertex order)
and the Poletto–Sarkar intervals of the set-based builders.  ``liveness``
stays in the program as the reference the liveness checker
(:mod:`repro.check.dataflow`) recomputes; the set-based graph and interval
builders are test references (``tests/analysis/set_reference.py``), and the
property suite (``tests/analysis/test_dense_kernel.py``) pins the
equivalence on generated SSA and non-SSA programs.  Stale φ edges are
rejected with the same typed :class:`~repro.errors.PhiEdgeError` as the
reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.liveness import validate_phi_edges
from repro.analysis.spill_costs import spill_costs
from repro.analysis.vr_index import VRIndex
from repro.graphs.graph import Graph, bit_indices
from repro.ir.function import Function
from repro.ir.values import VirtualRegister

if TYPE_CHECKING:  # live_ranges imports this module for its builder
    from repro.analysis.live_ranges import LiveInterval

#: per-instruction (defined-registers mask, used-registers mask) pair.
InstructionMasks = Tuple[int, int]


@dataclass
class DenseLivenessInfo:
    """Bitmask liveness of one function over a shared :class:`VRIndex`."""

    index: VRIndex
    #: per-block live-in/live-out masks (unreachable blocks hold 0).
    live_in: Dict[str, int]
    live_out: Dict[str, int]
    #: per-block dataflow-local masks (φ results included in ``defs``, φ
    #: operands excluded from ``upward_exposed`` — SSA edge semantics).
    defs: Dict[str, int]
    upward_exposed: Dict[str, int]
    #: φ results defined at the top of each block.
    phi_defs: Dict[str, int]
    #: registers used by φs along the edge *from* each (predecessor) block.
    phi_uses: Dict[str, int]
    #: per-block, per-instruction (def mask, use mask) in instruction order;
    #: shared with the interference builder so operands are scanned once.
    instruction_masks: Dict[str, List[InstructionMasks]] = field(repr=False, default_factory=dict)


def _block_masks(
    function: Function, index: VRIndex
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int], Dict[str, int], Dict[str, List[InstructionMasks]]]:
    """One scan over the IR: all per-block and per-instruction masks."""
    bit = index.bit
    labels = function.block_labels()
    upward: Dict[str, int] = {}
    defs: Dict[str, int] = {}
    phi_defs: Dict[str, int] = {}
    phi_uses: Dict[str, int] = dict.fromkeys(labels, 0)
    instruction_masks: Dict[str, List[InstructionMasks]] = {}
    for block in function:
        exposed = 0
        defined = 0
        phi_def_mask = 0
        for phi in block.phis:
            phi_def_mask |= 1 << bit(phi.target)
            for pred_label, value in phi.incoming.items():
                if isinstance(value, VirtualRegister):
                    phi_uses[pred_label] |= 1 << bit(value)
        defined |= phi_def_mask
        masks: List[InstructionMasks] = []
        append = masks.append
        for instruction in block.instructions:
            use_mask = 0
            for operand in instruction.uses:
                if isinstance(operand, VirtualRegister):
                    use_mask |= 1 << bit(operand)
            def_mask = 0
            for reg in instruction.defs:
                def_mask |= 1 << bit(reg)
            exposed |= use_mask & ~defined
            defined |= def_mask
            append((def_mask, use_mask))
        upward[block.label] = exposed
        defs[block.label] = defined
        phi_defs[block.label] = phi_def_mask
        instruction_masks[block.label] = masks
    return upward, defs, phi_defs, phi_uses, instruction_masks


def dense_liveness(
    function: Function,
    index: Optional[VRIndex] = None,
    cfg: Optional[ControlFlowGraph] = None,
) -> DenseLivenessInfo:
    """Bitmask liveness via a predecessor-driven worklist.

    Computes the same least fixpoint as the reference full-sweep iteration
    in :func:`repro.analysis.liveness.liveness`, but re-evaluates only
    blocks whose successors actually changed, seeded in postorder (so the
    common reducible case converges in one pass and irreducible CFGs revisit
    exactly the blocks on the cycle).  Unreachable blocks keep empty (zero)
    masks, matching the reference.  Raises
    :class:`~repro.errors.PhiEdgeError` on φ edges whose label is not a CFG
    predecessor.
    """
    if index is None:
        index = VRIndex(function)
    cfg = validate_phi_edges(function, cfg)
    upward, defs, phi_defs, phi_uses, instruction_masks = _block_masks(function, index)

    labels = function.block_labels()
    live_in: Dict[str, int] = dict.fromkeys(labels, 0)
    live_out: Dict[str, int] = dict.fromkeys(labels, 0)

    order = cfg.postorder()
    reachable = set(order)
    queued = set(order)
    worklist = deque(order)
    successors = cfg.successors
    predecessors = cfg.predecessors
    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        out = phi_uses[label]
        for succ in successors[label]:
            out |= live_in[succ] & ~phi_defs[succ]
        new_in = upward[label] | (out & ~defs[label]) | phi_defs[label]
        if out != live_out[label] or new_in != live_in[label]:
            live_out[label] = out
            live_in[label] = new_in
            for pred in predecessors[label]:
                if pred in reachable and pred not in queued:
                    queued.add(pred)
                    worklist.append(pred)

    return DenseLivenessInfo(
        index=index,
        live_in=live_in,
        live_out=live_out,
        defs=defs,
        upward_exposed=upward,
        phi_defs=phi_defs,
        phi_uses=phi_uses,
        instruction_masks=instruction_masks,
    )


def build_interference_graph_dense(
    function: Function,
    info: Optional[DenseLivenessInfo] = None,
    weights: Optional[Dict[VirtualRegister, float]] = None,
) -> Graph:
    """Build the weighted interference graph from its adjacency rows.

    Two registers interfere when one is defined where the other is live; φ
    results and parameters interfere with everything live where they are
    defined (block entry, function entry).  Vertices are register names in
    first-occurrence order, weighted by ``weights`` (default: the spill-cost
    model; a register missing from ``weights`` weighs 1.0).  The rows are
    built symmetric in a single backward walk per block.  The reverse
    direction (bit of the *defined* register into every live
    register's row) is accumulated with a prefix-diff trick: within one
    block walk, a register live over a span of program points receives the
    OR of the definition masks accumulated over exactly that span, closed
    with one ``A_close & ~A_open`` per span instead of one update per
    (definition × live register) pair.
    """
    if info is None:
        info = dense_liveness(function)
    if weights is None:
        weights = spill_costs(function)

    index = info.index
    n = len(index)
    rows = [0] * n

    # Parameters are defined "at once" at function entry: they interfere
    # with everything live at entry (including each other).
    if function.entry_label is not None and function.parameters:
        param_mask = index.mask_of(function.parameters)
        entry_live = info.live_in[function.entry_label] | param_mask
        for param in function.parameters:
            i = index.bit(param)
            rows[i] |= entry_live & ~(1 << i)
        reverse = entry_live & ~param_mask
        if reverse:
            for u in bit_indices(reverse):
                rows[u] |= param_mask

    for block in function:
        label = block.label
        # φ results are simultaneously live at block entry.
        phi_def_mask = info.phi_defs[label]
        if phi_def_mask:
            live_in = info.live_in[label]
            for phi in block.phis:
                i = index.bit(phi.target)
                rows[i] |= live_in & ~(1 << i)
            reverse = live_in & ~phi_def_mask
            if reverse:
                for u in bit_indices(reverse):
                    rows[u] |= phi_def_mask

        live = info.live_out[label]
        accumulated = 0            # defs seen so far in this backward walk
        opened: Dict[int, int] = {}  # live register bit -> snapshot of accumulated
        for u in bit_indices(live):
            opened[u] = 0
        for def_mask, use_mask in reversed(info.instruction_masks[label]):
            if def_mask:
                if def_mask & accumulated:
                    # A register is redefined within the block (non-SSA):
                    # flush every open span so the prefix-diff stays exact
                    # across the repeated definition bit.
                    for u, opened_at in opened.items():
                        if opened_at != accumulated:
                            rows[u] |= accumulated & ~opened_at
                    opened = dict.fromkeys(opened, 0)
                    accumulated = 0
                both = live | def_mask
                mask = def_mask
                while mask:
                    lsb = mask & -mask
                    rows[lsb.bit_length() - 1] |= both ^ lsb
                    mask ^= lsb
                killed = def_mask & live
                if killed:
                    for d in bit_indices(killed):
                        opened_at = opened.pop(d)
                        if opened_at != accumulated:
                            rows[d] |= accumulated & ~opened_at
                accumulated |= def_mask
                live &= ~def_mask
            fresh = use_mask & ~live
            if fresh:
                for u in bit_indices(fresh):
                    opened[u] = accumulated
                live |= use_mask
        for u, opened_at in opened.items():
            if opened_at != accumulated:
                rows[u] |= accumulated & ~opened_at

    registers = index.registers
    names = [reg.name for reg in registers]
    get = weights.get
    return Graph.from_rows(
        names, rows, [float(get(reg, 1.0)) for reg in registers]
    )


def dense_live_intervals(
    function: Function, info: Optional[DenseLivenessInfo] = None
) -> List[LiveInterval]:
    """Linearised live intervals, computed from the dense liveness masks.

    Program points number every φ and instruction in block layout order,
    one point each (a block's φs come before its instructions).  A
    register's interval runs from the first point where it is defined or
    live to the last point where it is used or live; a register live across
    a block covers the whole block.  Its start/end *block* falls out of two
    mask sweeps (first/last block whose occurrence mask contains it) and
    only the position inside those two blocks is resolved per register.
    """
    from repro.analysis.live_ranges import LiveInterval

    if info is None:
        info = dense_liveness(function)
    index = info.index

    labels: List[str] = []
    spans: Dict[str, Tuple[int, int]] = {}
    #: per-block: first/last access point per register bit, and the access mask.
    first_point: Dict[str, Dict[int, int]] = {}
    last_point: Dict[str, Dict[int, int]] = {}
    occurrence: Dict[str, int] = {}
    counter = 0
    for block in function:
        label = block.label
        labels.append(label)
        block_first = counter
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        access = 0
        for phi in block.phis:
            b = index.bit(phi.target)
            if b not in first:
                first[b] = counter
            last[b] = counter
            access |= 1 << b
            counter += 1
        for def_mask, use_mask in info.instruction_masks[label]:
            both = def_mask | use_mask
            if both:
                access |= both
                for b in bit_indices(both):
                    if b not in first:
                        first[b] = counter
                    last[b] = counter
            counter += 1
        spans[label] = (block_first, counter - 1)
        first_point[label] = first
        last_point[label] = last
        occurrence[label] = access | info.live_in[label] | info.live_out[label]

    start: Dict[int, int] = {}
    end: Dict[int, int] = {}
    seen = 0
    for label in labels:
        fresh = occurrence[label] & ~seen
        if fresh:
            seen |= fresh
            block_first, block_last = spans[label]
            live_in = info.live_in[label]
            first = first_point[label]
            for b in bit_indices(fresh):
                if (live_in >> b) & 1:
                    start[b] = block_first
                else:
                    # Accessed here, or (live-out only) noted at block end.
                    start[b] = first.get(b, block_last)
    seen = 0
    for label in reversed(labels):
        fresh = occurrence[label] & ~seen
        if fresh:
            seen |= fresh
            block_first, block_last = spans[label]
            live_out = info.live_out[label]
            last = last_point[label]
            for b in bit_indices(fresh):
                if (live_out >> b) & 1:
                    end[b] = block_last
                else:
                    end[b] = last.get(b, block_first)

    # Parameters are live from the very first instruction.
    for param in function.parameters:
        b = index.bit(param)
        if b in start:
            start[b] = 0

    registers = index.registers
    intervals = [
        LiveInterval(registers[b], start[b], end[b]) for b in start
    ]
    intervals.sort(key=lambda interval: (interval.start, interval.end, interval.register.name))
    return intervals
