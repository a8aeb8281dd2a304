"""Dense bitset dataflow kernel: liveness and interference on int masks.

This module is the performance twin of :mod:`repro.analysis.liveness` and
:mod:`repro.analysis.interference`: every register set becomes one
arbitrary-width Python integer over a shared :class:`~repro.analysis.vr_index.VRIndex`,
the backward liveness fixpoint becomes a predecessor-driven worklist over
masks, and interference construction ORs definition points against live
masks — emitting the whole adjacency as
:class:`~repro.graphs.dense.DenseGraph` bitmask rows in one pass, without
materializing a single Python set.

Equivalence guarantee
---------------------
Every function here is an exact replica of its set-based counterpart: same
live-in/live-out contents, same per-point live sets, same MaxLive, same
interference edges, weights and vertex order.  The set-based implementations
stay in-tree as the reference oracle and the property suite
(``tests/analysis/test_dense_kernel.py``) pins the equivalence on generated
SSA and non-SSA corpora.  Stale φ edges are rejected with the same typed
:class:`~repro.errors.PhiEdgeError` as the reference.
"""

from __future__ import annotations

from collections import deque
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.live_ranges import LiveInterval
from repro.analysis.liveness import LivenessInfo, validate_phi_edges
from repro.analysis.spill_costs import spill_costs
from repro.analysis.vr_index import VRIndex
from repro.graphs.dense import DenseGraph, bit_indices
from repro.graphs.graph import Graph
from repro.ir.function import Function
from repro.ir.values import VirtualRegister

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

    def to_info(self) -> LivenessInfo:
        """View as the set-based :class:`LivenessInfo` shape.

        The returned info carries this object on its ``dense`` field so
        downstream consumers (the interference stage) can stay on the
        bitmask fast path.  Its ``live_in``/``live_out``/``defs``/
        ``upward_exposed`` maps expand a block's mask into a register set
        the first time that block is read and keep the set, so in-place
        updates persist and a consumer that reads nothing (the default
        pipeline) expands nothing.
        """
        index = self.index
        return LivenessInfo(
            live_in=LazyRegisterSets(self.live_in, index),
            live_out=LazyRegisterSets(self.live_out, index),
            defs=LazyRegisterSets(self.defs, index),
            upward_exposed=LazyRegisterSets(self.upward_exposed, index),
            dense=self,
        )


class LazyRegisterSets(MutableMapping):
    """Block label -> register set, expanded from a bitmask on first read.

    Reads return the same set object every time, and assignments replace
    it, exactly like the ``dict`` of sets the set-based analysis builds.
    """

    __slots__ = ("_masks", "_index", "_sets")

    def __init__(self, masks: Dict[str, int], index: VRIndex) -> None:
        self._masks = masks
        self._index = index
        #: label -> expanded (or assigned) set; ``None`` until first read.
        self._sets: Dict[str, Optional[set]] = dict.fromkeys(masks)

    def __getitem__(self, label: str) -> set:
        regs = self._sets[label]
        if regs is None:
            regs = self._sets[label] = self._index.set_of(self._masks[label])
        return regs

    def __setitem__(self, label: str, regs: set) -> None:
        self._sets[label] = regs

    def __delitem__(self, label: str) -> None:
        del self._sets[label]

    def __iter__(self) -> Iterator[str]:
        return iter(self._sets)

    def __len__(self) -> int:
        return len(self._sets)

    def __contains__(self, label: object) -> bool:
        return label in self._sets

    def __repr__(self) -> str:
        return repr(dict(self.items()))


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


def dense_live_sets_per_instruction(
    function: Function, info: Optional[DenseLivenessInfo] = None
) -> Dict[str, List[int]]:
    """Per-block list of live-*after* masks, one per instruction.

    The mask at index ``i`` mirrors
    :func:`repro.analysis.liveness.live_sets_per_instruction`'s set at the
    same index.
    """
    if info is None:
        info = dense_liveness(function)
    per_block: Dict[str, List[int]] = {}
    for block in function:
        label = block.label
        live = info.live_out[label]
        masks = info.instruction_masks[label]
        points = [0] * len(masks)
        for position in range(len(masks) - 1, -1, -1):
            def_mask, use_mask = masks[position]
            points[position] = live
            live = (live & ~def_mask) | use_mask
        per_block[label] = points
    return per_block


def dense_max_live(function: Function, info: Optional[DenseLivenessInfo] = None) -> int:
    """MaxLive via popcounts; mirrors :func:`repro.analysis.liveness.max_live`
    (dead definitions still occupy a register at their definition point)."""
    if info is None:
        info = dense_liveness(function)
    pressure = 0
    for block in function:
        label = block.label
        entry = info.live_in[label].bit_count()
        if entry > pressure:
            pressure = entry
        live = info.live_out[label]
        for def_mask, use_mask in reversed(info.instruction_masks[label]):
            after = (live | def_mask).bit_count()
            if after > pressure:
                pressure = after
            live = (live & ~def_mask) | use_mask
            before = live.bit_count()
            if before > pressure:
                pressure = before
    return pressure


def build_interference_graph_dense(
    function: Function,
    info: Optional[DenseLivenessInfo] = None,
    weights: Optional[Dict[VirtualRegister, float]] = None,
    include: Optional[Iterable[VirtualRegister]] = None,
) -> Graph:
    """Build the weighted interference graph as a :class:`DenseGraph`.

    Same vertices (register names, first-occurrence order), same edges and
    same weights as :func:`repro.analysis.interference.build_interference_graph`
    — but built as symmetric bitmask rows in a single backward walk.  The
    reverse direction (bit of the *defined* register into every live
    register's row) is accumulated with a prefix-diff trick: within one
    block walk, a register live over a span of program points receives the
    OR of the definition masks accumulated over exactly that span, closed
    with one ``A_close & ~A_open`` per span instead of one update per
    (definition × live register) pair.

    ``include`` restricts the vertex set; that rarely-used form delegates to
    the set-based reference builder (and therefore returns a plain
    :class:`~repro.graphs.graph.Graph`).
    """
    if include is not None:
        from repro.analysis.interference import build_interference_graph

        set_info = info.to_info() if info is not None else None
        return build_interference_graph(
            function, info=set_info, weights=weights, include=include
        )
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
    return DenseGraph.from_rows(
        names, rows, [float(get(reg, 1.0)) for reg in registers]
    )


def dense_live_intervals(
    function: Function, info: Optional[DenseLivenessInfo] = None
) -> List[LiveInterval]:
    """Linearised live intervals, computed from the dense liveness masks.

    Exact replica of :func:`repro.analysis.live_ranges.live_intervals`: the
    reference extends every register's interval with one ``note()`` per
    (block boundary × live register) pair, which dominates its cost; here a
    register's start/end *block* falls out of two mask sweeps (first/last
    block whose occurrence mask contains it) and only the position inside
    those two blocks is resolved per register.
    """
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
