"""Basic blocks: straight-line instruction sequences with one terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import IRError
from repro.ir.instructions import Instruction, Phi


class BasicBlock:
    """A labelled basic block.

    φ-functions are stored separately from ordinary instructions (``phis`` vs
    ``instructions``) because every analysis treats them differently; the
    textual printer emits φs first, as usual.  The final ordinary instruction
    must be a terminator once the function is complete — the verifier checks
    this, the builder inserts it.
    """

    __slots__ = ("label", "phis", "instructions")

    def __init__(self, label: str) -> None:
        self.label = label
        self.phis: List[Phi] = []
        self.instructions: List[Instruction] = []

    # ------------------------------------------------------------------ #
    def append(self, instruction: Instruction) -> Instruction:
        """Append an instruction (φs are routed to the φ list)."""
        if isinstance(instruction, Phi):
            self.phis.append(instruction)
        else:
            if self.instructions and self.instructions[-1].is_terminator:
                raise IRError(f"block {self.label!r} already has a terminator")
            self.instructions.append(instruction)
        return instruction

    @property
    def terminator(self) -> Optional[Instruction]:
        """The terminator instruction, or ``None`` if the block is unfinished."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List[str]:
        """Labels of the blocks this block may branch to."""
        terminator = self.terminator
        return list(terminator.targets) if terminator is not None else []

    def all_instructions(self) -> Iterator[Instruction]:
        """Iterate φs then ordinary instructions, in program order."""
        yield from self.phis
        yield from self.instructions

    def __len__(self) -> int:
        return len(self.phis) + len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock({self.label!r}, {len(self)} instructions)"
