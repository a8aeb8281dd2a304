"""Stable register ↔ bit mappings for the dense dataflow kernel.

A :class:`VRIndex` assigns every virtual register of one function a bit
position, in first-occurrence order (parameters first, then definition/use
order — exactly :meth:`repro.ir.function.Function.virtual_registers`).  All
bitmask-valued analyses of that function (liveness sets, per-point live
masks, interference rows) share one index, so masks from different analyses
compose with plain ``&``/``|``.

Stability contract
------------------
Bit assignments are stable *for the IR snapshot the index was built from*.
The IR has no mutation counter (unlike
:attr:`repro.graphs.graph.Graph.mutation_stamp`, which guards the graph-side
caches), so invalidation is the caller's responsibility: any pass that adds,
removes or renames registers, blocks or instructions must rebuild the index.
:meth:`VRIndex.is_stale` is a cheap structural probe (register/block/
instruction counts) that catches the common violations; analyses built
through :mod:`repro.analysis.dense` always construct a fresh index per run,
so staleness only concerns callers who cache an index themselves.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.values import VirtualRegister

from repro.graphs.graph import bit_indices


class VRIndex:
    """A bijection between one function's virtual registers and bit positions."""

    __slots__ = ("registers", "_index", "_signature")

    def __init__(self, function: Function) -> None:
        #: registers in bit order (index ``i`` holds the register of bit ``i``).
        self.registers: Tuple[VirtualRegister, ...] = tuple(function.virtual_registers())
        self._index: Dict[VirtualRegister, int] = {
            reg: i for i, reg in enumerate(self.registers)
        }
        self._signature = self._fingerprint(function)

    @staticmethod
    def _fingerprint(function: Function) -> Tuple[int, int]:
        return (len(function), function.num_instructions())

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.registers)

    def __contains__(self, reg: VirtualRegister) -> bool:
        return reg in self._index

    def bit(self, reg: VirtualRegister) -> int:
        """Bit position of ``reg``."""
        try:
            return self._index[reg]
        except KeyError:
            raise IRError(f"register {reg} is not in this VRIndex") from None

    def register_at(self, position: int) -> VirtualRegister:
        """Register mapped to bit ``position``."""
        try:
            return self.registers[position]
        except IndexError:
            raise IRError(f"bit {position} is outside this VRIndex") from None

    def mask_of(self, registers: Iterable[VirtualRegister]) -> int:
        """Membership mask of ``registers`` (all must be indexed)."""
        index = self._index
        mask = 0
        for reg in registers:
            mask |= 1 << index[reg]
        return mask

    def registers_in(self, mask: int) -> List[VirtualRegister]:
        """Registers whose bits are set in ``mask``, in bit order."""
        regs = self.registers
        return [regs[i] for i in bit_indices(mask)]

    def set_of(self, mask: int):
        """``registers_in`` as a set (the shape the set-based analyses use)."""
        regs = self.registers
        return {regs[i] for i in bit_indices(mask)}

    def is_stale(self, function: Function) -> bool:
        """Cheap structural probe: has ``function`` visibly diverged?

        ``False`` is necessary but not sufficient for freshness — a rename
        that keeps all counts equal goes unnoticed; see the module-level
        stability contract.
        """
        if self._fingerprint(function) != self._signature:
            return True
        return tuple(function.virtual_registers()) != self.registers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VRIndex({len(self.registers)} registers)"
