"""Tests for linearised live intervals."""

from repro.analysis.live_ranges import (
    LiveInterval,
    interval_pressure,
    intervals_to_interference,
    live_intervals,
)
from repro.analysis.liveness import max_live
from repro.analysis.ssa_construction import construct_ssa
from repro.ir.parser import parse_function
from repro.ir.values import VirtualRegister


def interval_map(intervals):
    return {interval.register.name: interval for interval in intervals}


def test_live_interval_overlap_and_length():
    a = LiveInterval(VirtualRegister("a"), 0, 4)
    b = LiveInterval(VirtualRegister("b"), 4, 6)
    c = LiveInterval(VirtualRegister("c"), 5, 9)
    assert a.overlaps(b)
    assert b.overlaps(a)
    assert not a.overlaps(c)
    assert a.length() == 5


def test_intervals_of_straight_line_code():
    fn = parse_function(
        """
func @straight(%a) {
entry:
  %x = add %a, 1
  %y = add %x, 2
  %z = add %y, %a
  ret %z
}
"""
    )
    intervals = interval_map(live_intervals(fn))
    assert intervals["a"].start == 0
    assert intervals["a"].end == 2  # last use of a
    assert intervals["x"].start == 0
    assert intervals["x"].end == 1
    assert intervals["z"].end == 3


def test_intervals_cover_loop_blocks(loop_function):
    intervals = interval_map(live_intervals(loop_function))
    # Every φ and instruction is one program point, in block layout order.
    labels = [block.label for block in loop_function for _ in (*block.phis, *block.instructions)]
    loop_points = [point for point, label in enumerate(labels) if label in ("header", "body")]
    # sum is live across the whole loop.
    assert intervals["sum"].start <= min(loop_points)
    assert intervals["sum"].end >= max(loop_points)


def test_interval_pressure_upper_bounds_max_live(diamond_function, loop_function):
    for fn in (diamond_function, loop_function):
        ssa = construct_ssa(fn)
        intervals = live_intervals(ssa)
        assert interval_pressure(intervals) >= max_live(ssa)


def test_interval_pressure_of_disjoint_intervals():
    intervals = [
        LiveInterval(VirtualRegister("a"), 0, 1),
        LiveInterval(VirtualRegister("b"), 2, 3),
        LiveInterval(VirtualRegister("c"), 4, 5),
    ]
    assert interval_pressure(intervals) == 1


def test_interval_pressure_of_nested_intervals():
    intervals = [
        LiveInterval(VirtualRegister("a"), 0, 10),
        LiveInterval(VirtualRegister("b"), 2, 8),
        LiveInterval(VirtualRegister("c"), 3, 4),
    ]
    assert interval_pressure(intervals) == 3


def test_intervals_to_interference_superset_of_graph_edges(loop_function):
    from repro.analysis.interference import build_interference_graph

    ssa = construct_ssa(loop_function)
    intervals = live_intervals(ssa)
    interval_edges = {
        frozenset((a.name, b.name)) for a, b in intervals_to_interference(intervals)
    }
    graph = build_interference_graph(ssa)
    graph_edges = {frozenset(edge) for edge in graph.edges()}
    # Interval overlap is a conservative over-approximation of interference.
    assert graph_edges <= interval_edges


def test_intervals_sorted_by_start():
    fn = parse_function(
        """
func @two(%a, %b) {
entry:
  %x = add %a, %b
  %y = add %x, %b
  ret %y
}
"""
    )
    intervals = live_intervals(fn)
    starts = [interval.start for interval in intervals]
    assert starts == sorted(starts)
