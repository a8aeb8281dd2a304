"""Spill-code insertion (paper Section 4.3).

A spilled variable does not vanish: in the spill-everywhere model it pays one
store after its definition and one load before each use, and the reloaded
values become short-lived temporaries that the assignment still has to fit.
This pass rewrites an IR function accordingly, so downstream users can
actually generate code from an allocation (and so tests can confirm that the
rewritten function's register pressure drops to the promised level).

For each spilled register ``%v``:

* a stack slot ``slot.v`` is allocated (modelled as a constant address);
* every definition ``%v = ...`` is followed by ``store slot.v, %v``;
* every use is preceded by ``%v.reloadN = load slot.v`` and rewritten to use
  the fresh reload temporary;
* φ-operands are reloaded at the end of the corresponding predecessor block.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, make_load, make_store
from repro.ir.values import Constant, VirtualRegister

#: first stack-slot address handed out by :func:`insert_spill_code`.  Program
#: memory traffic below this address can never alias spill slots, which is
#: what lets the correctness oracle diff visible memory (addresses below the
#: base) while ignoring the slots, and lets the interpreter attribute
#: high-address accesses to spill code in its diagnostics.  A function that
#: itself addresses memory at or above the base gets its slots placed above
#: its highest *constant* address (see :func:`insert_spill_code`), so slots
#: never collide with statically-addressed program traffic; register-computed
#: addresses that land in the slot range at runtime remain the caller's
#: responsibility (the oracle's generator masks them well below the base),
#: and high program addresses sit outside the oracle's visible window on
#: *both* sides of a diff.
SPILL_SLOT_BASE = 1000


def _slot_base(function: Function) -> int:
    """First safe slot address: above every constant address the program uses."""
    highest = -1
    for instruction in function.instructions():
        if instruction.opcode in (Opcode.LOAD, Opcode.STORE) and instruction.uses:
            address = instruction.uses[0]
            if isinstance(address, Constant) and isinstance(address.value, int):
                highest = max(highest, address.value)
    return max(SPILL_SLOT_BASE, highest + 1)


def insert_spill_code(
    function: Function, spilled: Iterable[str]
) -> Tuple[Function, Dict[str, int]]:
    """Return a copy of ``function`` with spill code for ``spilled`` registers.

    ``spilled`` contains register *names* (matching interference-graph
    vertices).  Returns the rewritten function and a statistics dict with the
    number of inserted ``loads`` and ``stores``.
    """
    spilled_names: Set[str] = set(spilled)
    result = function.clone()
    base = _slot_base(function)
    slot_address: Dict[str, Constant] = {
        name: Constant(base + index) for index, name in enumerate(sorted(spilled_names))
    }
    stats = {"loads": 0, "stores": 0}
    reload_counter = 0

    for block in result:
        new_instructions: List[Instruction] = []
        for instruction in block.instructions:
            # Reload spilled operands right before the use.
            replacements: Dict[VirtualRegister, VirtualRegister] = {}
            for reg in instruction.used_registers():
                if reg.name in spilled_names and reg not in replacements:
                    reload = VirtualRegister(f"{reg.name}.reload{reload_counter}")
                    reload_counter += 1
                    new_instructions.append(make_load(reload, slot_address[reg.name]))
                    stats["loads"] += 1
                    replacements[reg] = reload
            for old, new in replacements.items():
                instruction.replace_use(old, new)
            new_instructions.append(instruction)
            # Store spilled definitions right after the definition.
            for reg in instruction.defined_registers():
                if reg.name in spilled_names:
                    new_instructions.append(make_store(slot_address[reg.name], reg))
                    stats["stores"] += 1
        # Keep the terminator last: a store inserted after a terminator must
        # move before it.
        if len(new_instructions) >= 2 and not new_instructions[-1].is_terminator:
            for position in range(len(new_instructions) - 1, -1, -1):
                if new_instructions[position].is_terminator:
                    terminator = new_instructions.pop(position)
                    new_instructions.append(terminator)
                    break
        block.instructions = new_instructions

        # φ results that are spilled get stored at the top of the block.
        stores_for_phis: List[Instruction] = []
        for phi in block.phis:
            if phi.target.name in spilled_names:
                stores_for_phis.append(make_store(slot_address[phi.target.name], phi.target))
                stats["stores"] += 1
        if stores_for_phis:
            block.instructions = stores_for_phis + block.instructions

    # Parameters that are spilled are stored once on entry.
    entry = result.entry
    parameter_stores: List[Instruction] = []
    for param in result.parameters:
        if param.name in spilled_names:
            parameter_stores.append(make_store(slot_address[param.name], param))
            stats["stores"] += 1
    if parameter_stores:
        entry.instructions = parameter_stores + entry.instructions

    return result, stats
