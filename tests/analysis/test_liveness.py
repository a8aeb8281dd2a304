"""Tests for liveness analysis, per-point live sets and MaxLive."""

from repro.analysis.liveness import liveness, max_live
from repro.analysis.ssa_construction import construct_ssa
from repro.ir.parser import parse_function
from repro.ir.values import VirtualRegister


def regs(*names):
    return {VirtualRegister(name) for name in names}


def test_liveness_straight_line():
    fn = parse_function(
        """
func @straight(%a, %b) {
entry:
  %x = add %a, %b
  %y = mul %x, %a
  ret %y
}
"""
    )
    info = liveness(fn)
    assert info.live_in["entry"] == regs("a", "b")
    assert info.live_out["entry"] == set()


def test_liveness_diamond(diamond_function):
    info = liveness(diamond_function)
    # a is needed in 'then', b in 'else'; both therefore live-in at entry.
    assert regs("a", "b") <= info.live_in["entry"]
    assert info.live_in["then"] == regs("a")
    assert info.live_in["else"] == regs("b")
    assert info.live_in["join"] == regs("x")
    assert info.live_out["join"] == set()


def test_liveness_loop(loop_function):
    info = liveness(loop_function)
    # The accumulators and the counter are live around the loop.
    assert regs("i", "sum", "prod", "n") <= info.live_in["header"]
    assert regs("sum", "prod") <= info.live_in["exit"]
    assert info.live_out["exit"] == set()


def test_liveness_with_phis_uses_edge_semantics(diamond_function):
    ssa = construct_ssa(diamond_function)
    info = liveness(ssa)
    join_phis = ssa.block("join").phis
    assert len(join_phis) == 1
    phi = join_phis[0]
    # The phi result is live-in of the join block.
    assert phi.target in info.live_in["join"]
    # The phi operands are live-out of their predecessors, not live-in of join.
    for pred_label, value in phi.incoming.items():
        assert value in info.live_out[pred_label]
        assert value not in info.live_in["join"]


def test_max_live_simple_pressure():
    fn = parse_function(
        """
func @pressure(%a, %b, %c) {
entry:
  %x = add %a, %b
  %y = add %x, %c
  %z = add %y, %a
  ret %z
}
"""
    )
    # a, b, c are simultaneously live before the first instruction; b dies
    # there (its register can be reused for x), so MaxLive is 3.
    assert max_live(fn) == 3


def test_max_live_counts_dead_definitions():
    fn = parse_function(
        """
func @dead(%a, %b) {
entry:
  %d = add %a, %b
  %r = add %a, %b
  ret %r
}
"""
    )
    # %d is dead but still occupies a register at its definition point.
    assert max_live(fn) >= 3


def test_max_live_of_loop(loop_function):
    # n, i, sum, prod plus the comparison result live inside the loop.
    assert max_live(loop_function) >= 5


def test_max_live_matches_ssa_clique_number(diamond_function, loop_function):
    from repro.analysis.interference import build_interference_graph
    from repro.graphs.cliques import maximum_clique_size

    for fn in (diamond_function, loop_function):
        ssa = construct_ssa(fn)
        pressure = max_live(ssa)
        omega = maximum_clique_size(build_interference_graph(ssa))
        assert omega == pressure
