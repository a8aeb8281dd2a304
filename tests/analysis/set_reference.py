"""Set-based reference builders: the oracle the dense dataflow kernel is checked against.

The program builds every interference graph and every set of live intervals
with :mod:`repro.analysis.dense`.  The bodies below are the register-set
formulations that kernel replaced, kept verbatim (less the ``include``
restriction nothing else used): they read liveness as the sets of
:func:`repro.analysis.liveness.liveness` and walk each block instruction by
instruction.  The kernel must return exactly what they return — same
vertices in the same order, same edges, same weights, same intervals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.live_ranges import LiveInterval
from repro.analysis.liveness import LivenessInfo, liveness
from repro.analysis.spill_costs import spill_costs
from repro.graphs.graph import Graph
from repro.ir.function import Function
from repro.ir.values import VirtualRegister


def build_interference_graph(
    function: Function,
    info: Optional[LivenessInfo] = None,
    weights: Optional[Dict[VirtualRegister, float]] = None,
) -> Graph:
    """Build the weighted interference graph of ``function``.

    Parameters
    ----------
    info:
        Pre-computed liveness, recomputed if omitted.
    weights:
        Spill costs per register; computed with the default cost model if
        omitted.  Vertices are keyed by register *name* (a string) so the
        graph serializes cleanly and matches the allocator interfaces.
    """
    if info is None:
        info = liveness(function)
    if weights is None:
        weights = spill_costs(function)

    registers = function.virtual_registers()
    allowed: Set[VirtualRegister] = set(registers)

    graph = Graph()
    for reg in registers:
        graph.add_vertex(reg.name, float(weights.get(reg, 1.0)))

    def connect(a: VirtualRegister, b: VirtualRegister) -> None:
        if a != b and a in allowed and b in allowed:
            graph.add_edge(a.name, b.name)

    # Parameters are all defined "at once" at function entry; like φ results
    # they interfere with everything live at that point (including each
    # other).  Without this the entry-live values would miss their mutual
    # edges because no instruction defines them.
    if function.entry_label is not None:
        entry_live = info.live_in[function.entry_label] | set(function.parameters)
        for param in function.parameters:
            for other in entry_live:
                connect(param, other)

    for block in function:
        # φ results are simultaneously live at block entry: they interfere
        # with each other and with everything else live-in.
        live_in = info.live_in[block.label]
        for phi in block.phis:
            for other in live_in:
                connect(phi.target, other)

        live: Set[VirtualRegister] = set(info.live_out[block.label])
        for instruction in reversed(block.instructions):
            defined = instruction.defined_registers()
            for reg in defined:
                for other in live:
                    connect(reg, other)
                # Two results of the same instruction interfere with each other.
                for other in defined:
                    connect(reg, other)
            for reg in defined:
                live.discard(reg)
            for reg in instruction.used_registers():
                live.add(reg)
    return graph


def _block_spans(function: Function) -> Dict[str, Tuple[int, int]]:
    """Return for each block the (first, last) instruction numbers it spans."""
    spans: Dict[str, Tuple[int, int]] = {}
    counter = 0
    for block in function:
        first = counter
        counter += len(block.phis) + len(block.instructions)
        spans[block.label] = (first, counter - 1)
    return spans


def live_intervals(
    function: Function, info: LivenessInfo | None = None
) -> List[LiveInterval]:
    """Compute conservative live intervals for every register of ``function``.

    A register's interval spans from the first program point where it is
    defined or live to the last point where it is used or live.  Registers
    live across a block (in live-in and live-out) extend over the whole block
    even if unreferenced in it — the conservatism inherent to linear scan.
    """
    if info is None:
        info = liveness(function)
    spans = _block_spans(function)
    start: Dict[VirtualRegister, int] = {}
    end: Dict[VirtualRegister, int] = {}

    def note(reg: VirtualRegister, point: int) -> None:
        if reg not in start or point < start[reg]:
            start[reg] = point
        if reg not in end or point > end[reg]:
            end[reg] = point

    counter = 0
    for block in function:
        block_first, block_last = spans[block.label]
        # Registers live on entry/exit of the block cover its whole span.
        for reg in info.live_in[block.label]:
            note(reg, block_first)
        for reg in info.live_out[block.label]:
            note(reg, block_last)
        for phi in block.phis:
            note(phi.target, counter)
            counter += 1
        for instruction in block.instructions:
            for reg in instruction.defined_registers():
                note(reg, counter)
            for reg in instruction.used_registers():
                note(reg, counter)
            counter += 1

    # Parameters are live from the very first instruction.
    for param in function.parameters:
        if param in start:
            note(param, 0)

    intervals = [LiveInterval(reg, start[reg], end[reg]) for reg in start]
    intervals.sort(key=lambda interval: (interval.start, interval.end, interval.register.name))
    return intervals
