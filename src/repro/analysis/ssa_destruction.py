"""SSA destruction: replace φ-functions with copies on incoming edges.

The non-chordal evaluation (SPEC JVM98-style) works on programs that are
*not* in SSA form.  To obtain realistic non-chordal interference graphs the
workload pipeline builds SSA first (to get clean live ranges) and then runs
this pass, which coalesces the φ webs back into shared names — exactly what a
JIT without SSA-based allocation sees.

Critical edges (predecessor with several successors feeding a block with
several predecessors) are split so the inserted copies execute only on the
intended path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dense import build_interference_graph_dense
from repro.ir.function import Function
from repro.ir.instructions import Opcode, make_branch, make_copy
from repro.ir.values import VirtualRegister

__all__ = ["destruct_ssa", "split_critical_edges", "coalesce_copies"]


def split_critical_edges(function: Function) -> Function:
    """Split every critical edge by inserting a forwarding block."""
    result = function.clone()
    cfg = ControlFlowGraph(result)
    critical: List[Tuple[str, str]] = []
    for src, dst in cfg.edges():
        if len(cfg.successors[src]) > 1 and len(cfg.predecessors[dst]) > 1:
            critical.append((src, dst))

    for index, (src, dst) in enumerate(critical):
        middle_label = f"{src}.split{index}.{dst}"
        middle = result.add_block(middle_label)
        middle.append(make_branch(dst))
        terminator = result.block(src).terminator
        assert terminator is not None
        terminator.targets = [middle_label if t == dst else t for t in terminator.targets]
        for phi in result.block(dst).phis:
            phi.rename_incoming_block(src, middle_label)
    return result


def destruct_ssa(function: Function, coalesce_phi_webs: bool = True) -> Function:
    """Return a φ-free copy of ``function``.

    With ``coalesce_phi_webs=True`` (the default) every φ and its operands are
    renamed to a single shared name (the φ web), which merges their live
    ranges — the aggressive coalescing that makes non-SSA interference graphs
    non-chordal in practice.  With ``False``, explicit copies are inserted on
    each incoming edge instead (the conventional, conservative lowering).
    """
    result = split_critical_edges(function)

    if coalesce_phi_webs:
        _coalesce_phi_webs(result)
        for block in result:
            block.phis = []
        return result

    for block in result:
        for phi in block.phis:
            for pred_label, value in phi.incoming.items():
                pred = result.block(pred_label)
                copy_instruction = make_copy(phi.target, value)
                insert_at = len(pred.instructions)
                if pred.terminator is not None:
                    insert_at -= 1
                pred.instructions.insert(insert_at, copy_instruction)
        block.phis = []
    return result


def coalesce_copies(function: Function) -> Function:
    """Coalesce register-to-register copies where it is provably safe.

    Every ``x = copy y`` with both sides in registers merges the webs of
    ``x`` and ``y`` into one name — *unless* the two webs interfere.  This
    models the move coalescing a JIT performs before allocation and is the
    second mechanism — besides φ-web merging — that makes non-SSA
    interference graphs non-chordal in practice.  The function is copied,
    the input is left untouched.

    The interference guard is what makes the pass meaning-preserving (the
    differential oracle caught the unconditional variant merging two
    variables copied from the same source and then updating one of them):
    webs are merged only when no member of one is live at a definition of
    the other, per the Chaitin interference graph of the lowered function.
    Copy-related pairs whose source stays live across the copy keep that
    edge, so the guard is conservative — never merging is always safe.  The
    guard reads only the graph's edges, so its vertices are left unweighted.
    """
    result = function.clone()
    graph = build_interference_graph_dense(result, weights={})

    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(name, name) != name:
            parent[name], name = root, parent[name]
        return root

    neighbors: Dict[str, set] = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    members: Dict[str, set] = {}

    for block in result:
        for instruction in block.instructions:
            if instruction.opcode is not Opcode.COPY or not instruction.defs:
                continue
            source = instruction.uses[0]
            if not isinstance(source, VirtualRegister):
                continue
            dest_root = find(instruction.defs[0].name)
            source_root = find(source.name)
            if dest_root == source_root:
                continue
            # The interference guard: merged webs must be interference-free.
            if source_root in {find(n) for n in neighbors.get(dest_root, ())}:
                continue
            parent[source_root] = dest_root
            neighbors[dest_root] = neighbors.get(dest_root, set()) | neighbors.get(
                source_root, set()
            )
            web = members.setdefault(dest_root, {dest_root})
            web.update(members.pop(source_root, {source_root}))

    # Stable, collision-free web names: one ``<base>.cw`` (or ``.cwN``) per
    # merged web; singleton webs keep their original name.
    taken = {reg.name for reg in result.virtual_registers()}
    rename: Dict[VirtualRegister, VirtualRegister] = {}
    for root in sorted(members):
        web = members[root]
        if len(web) < 2:
            continue
        base = find(root).split(".")[0]
        candidate, suffix = f"{base}.cw", 1
        while candidate in taken and candidate not in web:
            suffix += 1
            candidate = f"{base}.cw{suffix}"
        taken.add(candidate)
        for name in web:
            rename[VirtualRegister(name)] = VirtualRegister(candidate)

    for block in result:
        for phi in block.phis:
            phi.defs = [rename.get(reg, reg) for reg in phi.defs]
            for label, value in list(phi.incoming.items()):
                if isinstance(value, VirtualRegister) and value in rename:
                    phi.incoming[label] = rename[value]
            phi.uses = list(phi.incoming.values())
        for instruction in block.instructions:
            instruction.defs = [rename.get(reg, reg) for reg in instruction.defs]
            instruction.uses = [
                rename.get(operand, operand) if isinstance(operand, VirtualRegister) else operand
                for operand in instruction.uses
            ]
    result.parameters = [rename.get(reg, reg) for reg in result.parameters]
    return result


def _coalesce_phi_webs(function: Function) -> None:
    """Union φ targets with their register operands and rename the webs."""
    parent: Dict[VirtualRegister, VirtualRegister] = {}

    def find(reg: VirtualRegister) -> VirtualRegister:
        root = reg
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(reg, reg) != reg:
            parent[reg], reg = root, parent[reg]
        return root

    def union(a: VirtualRegister, b: VirtualRegister) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for phi in function.phi_nodes():
        for value in phi.incoming.values():
            if isinstance(value, VirtualRegister):
                union(phi.target, value)

    # Build a stable rename map: every member of a web maps to one name
    # derived from the web's root.
    rename: Dict[VirtualRegister, VirtualRegister] = {}
    for phi in function.phi_nodes():
        members = [phi.target] + [v for v in phi.incoming.values() if isinstance(v, VirtualRegister)]
        for member in members:
            root = find(member)
            base = root.name.split(".")[0]
            rename[member] = VirtualRegister(f"{base}.web")

    for block in function:
        for instruction in block.instructions:
            instruction.defs = [rename.get(reg, reg) for reg in instruction.defs]
            instruction.uses = [
                rename.get(operand, operand) if isinstance(operand, VirtualRegister) else operand
                for operand in instruction.uses
            ]
    function.parameters = [rename.get(reg, reg) for reg in function.parameters]
