"""Linearised live intervals for the linear-scan family of allocators.

The linear scan (LS) and its Belady variant (BLS) evaluated in the paper's
non-chordal experiments do not work on an interference graph: they scan
*live intervals* over a linear instruction numbering.  The intervals
number every φ and instruction in block layout order, one program point
each, and give every virtual register the conservative interval
``[start, end]`` covering every program point where it is live — exactly
the Poletto–Sarkar model.

The interval builder is the dense kernel's
(:func:`repro.analysis.dense.dense_live_intervals`), exported here as
:func:`live_intervals`; it reads the bitmask liveness of
:func:`repro.analysis.dense.dense_liveness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.analysis.dense import dense_live_intervals
from repro.ir.values import VirtualRegister


@dataclass(frozen=True)
class LiveInterval:
    """A register's conservative live interval on the linear numbering."""

    register: VirtualRegister
    start: int
    end: int

    def overlaps(self, other: "LiveInterval") -> bool:
        """Whether two intervals share at least one program point."""
        return self.start <= other.end and other.start <= self.end

    def length(self) -> int:
        """Number of program points covered."""
        return self.end - self.start + 1


live_intervals = dense_live_intervals


def interval_pressure(intervals: List[LiveInterval]) -> int:
    """Maximum number of simultaneously overlapping intervals.

    This is the MaxLive as seen by a linear-scan allocator (an upper bound on
    the true MaxLive because intervals are conservative).
    """
    events: List[Tuple[int, int]] = []
    for interval in intervals:
        events.append((interval.start, 1))
        events.append((interval.end + 1, -1))
    events.sort()
    pressure = 0
    best = 0
    for _, delta in events:
        pressure += delta
        best = max(best, pressure)
    return best


def intervals_to_interference(intervals: List[LiveInterval]) -> Set[Tuple[VirtualRegister, VirtualRegister]]:
    """Derive the interference edges implied by interval overlap."""
    edges: Set[Tuple[VirtualRegister, VirtualRegister]] = set()
    ordered = sorted(intervals, key=lambda i: (i.start, i.end))
    for index, a in enumerate(ordered):
        for b in ordered[index + 1 :]:
            if b.start > a.end:
                break
            if a.overlaps(b):
                key = tuple(sorted((a.register, b.register), key=lambda r: r.name))
                edges.add(key)  # type: ignore[arg-type]
    return edges
