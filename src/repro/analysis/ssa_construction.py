"""SSA construction (Cytron et al.): φ insertion on dominance frontiers plus
renaming along the dominance tree.

The paper's chordal-graph experiments require *strict* SSA: each variable has
one textual definition and every definition dominates its uses.  Under that
discipline live ranges are subtrees of the dominance tree and the interference
graph is chordal — the property the layered-optimal allocator exploits.

The input is an ordinary (non-SSA) function where registers may be assigned
several times; the output is a new function (the input is not mutated) where
each assignment creates a fresh version ``name.N``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dense import dense_liveness
from repro.analysis.dominance_frontier import dominance_frontiers
from repro.analysis.dominators import dominator_tree
from repro.errors import IRError
from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.values import Value, VirtualRegister


def construct_ssa(function: Function, prune: bool = True) -> Function:
    """Return an SSA-form copy of ``function``.

    With ``prune=True`` (the default) φ-functions are only placed where the
    variable is actually live on entry — *pruned SSA*, the form production
    compilers build.  Unpruned placement (``prune=False``) inserts a φ at
    every iterated-dominance-frontier block, which creates dead φs whose
    operands artificially lengthen live ranges.

    Pre-existing φ-functions are rejected (the input is expected to be plain
    imperative code); run :func:`repro.analysis.ssa_destruction.destruct_ssa`
    first if needed.
    """
    if function.phi_nodes():
        raise IRError(
            f"function {function.name!r} already contains phi nodes; construct_ssa expects non-SSA input"
        )
    ssa = function.clone()
    cfg = ControlFlowGraph(ssa)
    domtree = dominator_tree(ssa)
    frontiers = dominance_frontiers(ssa, domtree)
    reachable = set(domtree.idom)
    if prune:
        # Liveness of the original (non-SSA) code decides where a φ is needed.
        original = dense_liveness(ssa, cfg=cfg)
        live_in: Optional[Dict[str, int]] = original.live_in
        bit = original.index.bit
    else:
        live_in = None

    # ------------------------------------------------------------------ #
    # Phase 1 — φ placement: iterated dominance frontier per variable.
    # ------------------------------------------------------------------ #
    def_blocks: Dict[VirtualRegister, Set[str]] = {}
    for param in ssa.parameters:
        def_blocks.setdefault(param, set()).add(cfg.entry)
    for block in ssa:
        if block.label not in reachable:
            continue
        for instruction in block.instructions:
            for reg in instruction.defined_registers():
                def_blocks.setdefault(reg, set()).add(block.label)

    phi_sites: Dict[str, Set[VirtualRegister]] = {label: set() for label in ssa.block_labels()}
    for reg, blocks_with_def in def_blocks.items():
        worklist = list(blocks_with_def)
        placed: Set[str] = set()
        while worklist:
            label = worklist.pop()
            for frontier_label in frontiers.get(label, set()):
                if frontier_label in placed:
                    continue
                placed.add(frontier_label)
                if live_in is None or (live_in[frontier_label] >> bit(reg)) & 1:
                    phi_sites[frontier_label].add(reg)
                # A φ (even a pruned-away one) counts as a definition for the
                # iterated frontier computation.
                if frontier_label not in blocks_with_def:
                    worklist.append(frontier_label)

    # Materialize φs (operands are filled during renaming).  They initially
    # define the original register name; renaming rewrites it to a version.
    original_of_phi: Dict[Phi, VirtualRegister] = {}
    for label, registers in phi_sites.items():
        if label not in reachable:
            continue
        block = ssa.block(label)
        for reg in sorted(registers, key=lambda r: r.name):
            phi = Phi(reg, {})
            block.phis.append(phi)
            original_of_phi[phi] = reg

    # ------------------------------------------------------------------ #
    # Phase 2 — renaming along the dominance tree.
    # ------------------------------------------------------------------ #
    counters: Dict[str, int] = {}
    stacks: Dict[str, List[VirtualRegister]] = {}

    def new_version(reg: VirtualRegister) -> VirtualRegister:
        index = counters.get(reg.name, 0)
        counters[reg.name] = index + 1
        version = VirtualRegister(f"{reg.name}.{index}")
        stacks.setdefault(reg.name, []).append(version)
        return version

    def current_version(reg: VirtualRegister) -> VirtualRegister:
        stack = stacks.get(reg.name)
        if not stack:
            raise IRError(
                f"register {reg} used before any definition while converting {function.name!r} to SSA"
            )
        return stack[-1]

    # Parameters get version 0 immediately and keep flowing from the entry.
    new_parameters = [new_version(param) for param in ssa.parameters]

    def rename_one_block(label: str) -> List[str]:
        """Rename defs/uses inside one block; return the version-stack pushes."""
        block: BasicBlock = ssa.block(label)
        pushed: List[str] = []

        for phi in block.phis:
            original = original_of_phi.get(phi, phi.target)
            version = new_version(original)
            phi.defs = [version]
            pushed.append(original.name)

        for instruction in block.instructions:
            new_uses: List[Value] = []
            for operand in instruction.uses:
                if isinstance(operand, VirtualRegister):
                    new_uses.append(current_version(operand))
                else:
                    new_uses.append(operand)
            instruction.uses = new_uses
            new_defs: List[VirtualRegister] = []
            for reg in instruction.defs:
                version = new_version(reg)
                new_defs.append(version)
                pushed.append(reg.name)
            instruction.defs = new_defs

        # Fill φ operands of successors for the edge label -> successor.
        for succ_label in cfg.successors[label]:
            succ = ssa.block(succ_label)
            for phi in succ.phis:
                original = original_of_phi.get(phi)
                if original is None:
                    continue
                stack = stacks.get(original.name)
                if stack:
                    phi.add_incoming(label, stack[-1])
                # If the original value is not defined along this path the
                # program never reads it on that edge; leave the edge without
                # an operand and fix it up below with a fresh undef version.
        return pushed

    ssa.parameters = new_parameters

    # Walk the dominance tree with an explicit stack so deeply nested CFGs do
    # not overflow Python's recursion limit.  Each entry is processed in two
    # steps: "enter" renames the block and schedules its children, "leave"
    # pops the version stacks it pushed.
    work: List[tuple] = [("enter", cfg.entry)]
    pending_pops: Dict[str, List[str]] = {}
    while work:
        action, label = work.pop()
        if action == "enter":
            pending_pops[label] = rename_one_block(label)
            work.append(("leave", label))
            for child in reversed(domtree.children.get(label, [])):
                work.append(("enter", child))
        else:
            for name in reversed(pending_pops.pop(label)):
                stacks[name].pop()

    _patch_incomplete_phis(ssa, cfg, counters)
    _rebuild_phi_targets(ssa, original_of_phi)
    return ssa


def _patch_incomplete_phis(ssa: Function, cfg: ControlFlowGraph, counters: Dict[str, int]) -> None:
    """Give φs missing an incoming edge a fresh (undefined) version.

    This only happens when a variable is not defined along some path; real
    programs do not read such values, so any placeholder works.  A distinct
    version keeps the SSA verifier happy without extending any live range.
    """
    for block in ssa:
        preds = cfg.predecessors[block.label]
        for phi in block.phis:
            target_base = phi.target.name.rsplit(".", 1)[0]
            for pred in preds:
                if pred not in phi.incoming:
                    index = counters.get(target_base, 0)
                    counters[target_base] = index + 1
                    undef = VirtualRegister(f"{target_base}.undef{index}")
                    # Define the placeholder in the predecessor so dominance
                    # holds trivially.
                    pred_block = ssa.block(pred)
                    from repro.ir.instructions import Opcode, make_copy
                    from repro.ir.values import Constant

                    copy_instr = make_copy(undef, Constant(0))
                    assert copy_instr.opcode is Opcode.COPY
                    pred_block.instructions.insert(len(pred_block.instructions) - 1, copy_instr)
                    phi.add_incoming(pred, undef)


def _rebuild_phi_targets(ssa: Function, original_of_phi: Dict[Phi, VirtualRegister]) -> None:
    """Drop φs that ended up trivially dead (no version, no uses).

    Defensive cleanup; with the iterated-dominance-frontier placement above
    every φ gets renamed, so this is normally a no-op.
    """
    for block in ssa:
        block.phis = [phi for phi in block.phis if phi.defs]


__all__ = ["construct_ssa"]
