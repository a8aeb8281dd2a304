"""Intra-block load/store optimization of spill code (paper Section 2.1).

The spill-everywhere model pays one load before *every* use of a spilled
variable.  The paper notes that "in practice, if the variable can stay in a
register between two consecutive uses, a load is saved", and argues that a
spill-everywhere solution can serve as the oracle for a finer-grained
load/store optimization.  This pass implements the practical half of that
observation:

* spill code is inserted for the chosen spill set
  (:func:`repro.alloc.spill_code.insert_spill_code`);
* inside each basic block, a reload from a stack slot whose value is already
  available in a register (from an earlier reload of the same slot, or from
  the store that filled the slot) is removed, and its uses are redirected to
  the register that still holds the value.

Correctness of the redundancy analysis (checked end-to-end by the
differential oracle in :mod:`repro.oracle`):

* availability is strictly intra-block — it is never carried across a basic
  block boundary, and a reload whose destination is referenced by a φ or by
  another block is never removed;
* a store through a *register* address may alias any tracked slot, so it
  invalidates all availability (constant-address stores only touch their own
  slot — ``call`` never touches memory in this IR, see
  :mod:`repro.ir.interpreter`);
* a redefinition of a register invalidates every slot it was holding,
  including redefinitions performed by loads and stores themselves
  (non-SSA input reuses destination registers);
* a reload is only removed when the replacement register provably still
  holds the slot's value at every rewritten use: the reload's destination
  has a single definition, all its uses sit later in the same block, and the
  holding register is not redefined before the last of them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.alloc.spill_code import insert_spill_code
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.values import Constant, VirtualRegister


@dataclass(frozen=True)
class LoadStoreStats:
    """Bookkeeping of the optimization."""

    stores: int
    loads_before: int
    loads_after: int

    @property
    def loads_saved(self) -> int:
        """Number of reload instructions removed by the local optimization."""
        return self.loads_before - self.loads_after


#: per block label: (use positions, definition positions) of each register.
BlockPositions = Dict[str, Tuple[Dict[VirtualRegister, List[int]], Dict[VirtualRegister, List[int]]]]


def _index_function(
    function: Function,
) -> Tuple[BlockPositions, Dict[VirtualRegister, int], Dict[VirtualRegister, int], Set[VirtualRegister]]:
    """One walk over ``function``: where each register is used and defined.

    Returns ``(positions, def_counts, use_counts, unsafe)``: ascending use
    and definition positions per block, function-wide definition and use
    counts, and ``unsafe``, every register referenced by any φ — those uses
    happen on a CFG edge, outside the straight-line region the availability
    analysis reasons about.
    """
    positions: BlockPositions = {}
    def_counts: Dict[VirtualRegister, int] = {}
    use_counts: Dict[VirtualRegister, int] = {}
    for param in function.parameters:
        def_counts[param] = def_counts.get(param, 0) + 1
    unsafe: Set[VirtualRegister] = set()
    for block in function:
        for phi in block.phis:
            def_counts[phi.target] = def_counts.get(phi.target, 0) + 1
            unsafe.update(phi.used_registers())
        uses: Dict[VirtualRegister, List[int]] = {}
        defs: Dict[VirtualRegister, List[int]] = {}
        for position, instruction in enumerate(block.instructions):
            for operand in instruction.uses:
                if isinstance(operand, VirtualRegister):
                    at = uses.get(operand)
                    if at is None:
                        uses[operand] = [position]
                    else:
                        at.append(position)
            for reg in instruction.defs:
                at = defs.get(reg)
                if at is None:
                    defs[reg] = [position]
                else:
                    at.append(position)
        for reg, at in uses.items():
            use_counts[reg] = use_counts.get(reg, 0) + len(at)
        for reg, at in defs.items():
            def_counts[reg] = def_counts.get(reg, 0) + len(at)
        positions[block.label] = (uses, defs)
    return positions, def_counts, use_counts, unsafe


def remove_redundant_reloads(function: Function) -> Tuple[Function, int]:
    """Remove locally redundant reloads from ``function`` (returns a copy).

    A ``load`` whose address is a constant stack slot is redundant when the
    slot's current value is already held in a register within the same block
    — either the register stored to the slot earlier in the block, or the
    destination of an earlier load of the same slot.  Returns the rewritten
    function and the number of loads removed.

    Removal is conservative: see the module docstring for the exact safety
    conditions (single definition, same-block uses only, stable holder).
    One indexing walk records where each register is used and defined;
    then each block is walked once: a removed reload's uses are rewritten at
    their indexed positions, a redefinition drops only the slots its
    register holds, and holder stability is a bisect over the holder's
    definition positions.
    """
    result = function.clone()
    positions, def_counts, use_counts, phi_used = _index_function(result)

    removed = 0
    for block in result:
        instructions = block.instructions
        uses_here, defs_here = positions[block.label]
        available: Dict[Constant, VirtualRegister] = {}
        #: reverse of ``available``: the slots each register currently holds.
        held: Dict[VirtualRegister, Set[Constant]] = {}
        new_instructions: List[Instruction] = []

        def hold(slot: Constant, holder: VirtualRegister) -> None:
            previous = available.get(slot)
            if previous is not None:
                held[previous].discard(slot)
            available[slot] = holder
            slots = held.get(holder)
            if slots is None:
                held[holder] = {slot}
            else:
                slots.add(slot)

        def invalidate_holders(registers: Iterable[VirtualRegister]) -> None:
            for reg in registers:
                for slot in held.pop(reg, ()):
                    del available[slot]

        for index, instruction in enumerate(instructions):
            opcode = instruction.opcode
            if opcode is Opcode.LOAD and isinstance(instruction.uses[0], Constant):
                slot = instruction.uses[0]
                destination = instruction.defs[0]
                holder = available.get(slot)
                if holder is not None and _removable(
                    destination,
                    holder,
                    index,
                    uses_here,
                    defs_here,
                    use_counts,
                    def_counts,
                    phi_used,
                ):
                    # Every use sits later in this block: redirect them now.
                    for position in uses_here.get(destination, ()):
                        operands = instructions[position].uses
                        operands[:] = [
                            holder if operand == destination else operand
                            for operand in operands
                        ]
                    removed += 1
                    continue  # drop the redundant reload
                # The load's destination is (re)defined here: any slot it was
                # holding is stale from this point on.
                invalidate_holders((destination,))
                hold(slot, destination)
            elif opcode is Opcode.STORE:
                address = instruction.uses[0]
                if isinstance(address, Constant):
                    value = instruction.uses[1]
                    if isinstance(value, VirtualRegister):
                        hold(address, value)
                    else:
                        previous = available.pop(address, None)
                        if previous is not None:
                            held[previous].discard(address)
                else:
                    # A store through a register may alias any slot.
                    available.clear()
                    held.clear()
            elif instruction.defs:
                # A redefinition of a register that was tracked as holding a
                # slot value invalidates that availability.  Calls are pure in
                # this IR (the interpreter models them as a deterministic
                # function of the arguments) so they never clobber memory.
                invalidate_holders(instruction.defs)
            new_instructions.append(instruction)
        block.instructions = new_instructions
    return result, removed


def _removable(
    destination: VirtualRegister,
    holder: VirtualRegister,
    index: int,
    uses_here: Dict[VirtualRegister, List[int]],
    defs_here: Dict[VirtualRegister, List[int]],
    use_counts: Dict[VirtualRegister, int],
    def_counts: Dict[VirtualRegister, int],
    phi_used: Set[VirtualRegister],
) -> bool:
    """Safety check for removing one reload (see module docstring)."""
    if def_counts.get(destination, 0) != 1:
        return False  # another definition exists: later uses may mean *it*
    if destination in phi_used:
        return False  # φ uses happen on CFG edges, outside this block
    positions = uses_here.get(destination, [])
    if use_counts.get(destination, 0) != len(positions):
        return False  # used in another block: availability must not cross
    if positions and positions[0] <= index:
        return False  # a use textually before the reload: broken input, keep
    if not positions:
        return True  # dead reload: removing it is trivially safe
    # The holder must have no definition in positions (index, last use].
    holder_defs = defs_here.get(holder, ())
    after = bisect_right(holder_defs, index)
    return after == len(holder_defs) or holder_defs[after] > positions[-1]


def insert_optimized_spill_code(
    function: Function, spilled: Iterable[str]
) -> Tuple[Function, LoadStoreStats]:
    """Insert spill code for ``spilled`` and clean up redundant reloads.

    Returns the rewritten function plus statistics comparing the naive
    spill-everywhere lowering with the optimized one.
    """
    naive, naive_stats = insert_spill_code(function, spilled)
    optimized, removed = remove_redundant_reloads(naive)
    stats = LoadStoreStats(
        stores=naive_stats["stores"],
        loads_before=naive_stats["loads"],
        loads_after=naive_stats["loads"] - removed,
    )
    return optimized, stats
