"""Dense bitset kernel: property-level equivalence with the set-based
reference analyses (``tests/analysis/set_reference.py`` and
:func:`repro.analysis.liveness.liveness`), worklist convergence, and the
φ-edge/frequency bugfix regressions that ride along with it."""

import pytest

from repro.analysis.dense import (
    build_interference_graph_dense,
    dense_live_intervals,
    dense_liveness,
)
from repro.analysis.liveness import liveness, validate_phi_edges
from repro.analysis.spill_costs import spill_costs
from repro.analysis.ssa_construction import construct_ssa
from repro.analysis.ssa_destruction import coalesce_copies, destruct_ssa
from repro.analysis.vr_index import VRIndex
from repro.errors import IRError, PhiEdgeError
from repro.ir.instructions import make_copy
from repro.ir.parser import parse_function
from repro.ir.values import VirtualRegister
from repro.oracle.generator import generate_program
from tests.analysis.set_reference import build_interference_graph, live_intervals


def _sets(dense, masks):
    return {label: dense.index.set_of(mask) for label, mask in masks.items()}


def assert_dense_equals_reference(fn, tag):
    """The dense liveness, intervals and graph must match the set-based
    reference exactly."""
    info = liveness(fn)
    dense = dense_liveness(fn)
    assert _sets(dense, dense.live_in) == info.live_in, tag
    assert _sets(dense, dense.live_out) == info.live_out, tag
    assert _sets(dense, dense.defs) == info.defs, tag
    assert _sets(dense, dense.upward_exposed) == info.upward_exposed, tag
    assert list(dense.live_in) == fn.block_labels(), tag

    assert dense_live_intervals(fn, dense) == live_intervals(fn, info), tag

    costs = spill_costs(fn)
    reference = build_interference_graph(fn, info=info, weights=costs)
    graph = build_interference_graph_dense(fn, info=dense, weights=costs)
    assert graph.vertices() == reference.vertices(), tag
    assert graph.rows() == reference.rows(), tag
    assert graph.weights() == reference.weights(), tag
    assert graph.num_edges() == reference.num_edges(), tag
    for v in reference.vertices():
        assert graph.neighbors(v) == reference.neighbors(v), (tag, v)


# ---------------------------------------------------------------------- #
# seeded property sweep over the oracle's program generator
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("index", range(10))
def test_dense_kernel_equals_reference_on_generated_ssa_programs(index):
    fn = construct_ssa(generate_program(2013, index, size="small"))
    assert_dense_equals_reference(fn, f"ssa/{index}")


@pytest.mark.parametrize("index", range(10))
def test_dense_kernel_equals_reference_on_generated_non_ssa_programs(index):
    ssa = construct_ssa(generate_program(2013, index, size="small"))
    fn = coalesce_copies(destruct_ssa(ssa))
    assert_dense_equals_reference(fn, f"non-ssa/{index}")


@pytest.mark.parametrize("index", range(4))
def test_dense_kernel_equals_reference_on_medium_programs(index):
    fn = construct_ssa(generate_program(7, index, size="medium"))
    assert_dense_equals_reference(fn, f"medium/{index}")


# ---------------------------------------------------------------------- #
# structured CFG shapes the generator rarely produces
# ---------------------------------------------------------------------- #
def test_worklist_converges_on_irreducible_cfg():
    # Two-entry loop: b and c form a cycle reachable from both sides — the
    # classic irreducible shape; a naive single postorder sweep is not
    # enough, the worklist must revisit the cycle until the fixpoint.
    fn = parse_function(
        """
func @irreducible(%p, %x, %y) {
entry:
  cbr %p, b, c
b:
  %u = add %x, 1
  cbr %u, c, exit
c:
  %v = add %y, 1
  cbr %v, b, exit
exit:
  %r = add %x, %y
  ret %r
}
"""
    )
    assert_dense_equals_reference(fn, "irreducible")
    info = dense_liveness(fn)
    x = info.index.bit(VirtualRegister("x"))
    y = info.index.bit(VirtualRegister("y"))
    # both loop entries keep x and y live around the cycle (used in exit)
    for label in ("b", "c"):
        assert (info.live_in[label] >> x) & 1
        assert (info.live_in[label] >> y) & 1


def test_dense_kernel_handles_unreachable_blocks_like_reference():
    fn = parse_function(
        """
func @dead(%a) {
entry:
  %x = add %a, 1
  br exit
dead:
  %y = mul %a, 7
  %z = add %y, %a
  br exit
exit:
  ret %x
}
"""
    )
    assert_dense_equals_reference(fn, "dead-blocks")
    info = dense_liveness(fn)
    assert info.live_in["dead"] == 0 and info.live_out["dead"] == 0


def test_dense_interference_multi_def_block_matches_reference():
    # Non-SSA shape: %acc redefined twice in one block while %keep stays
    # live across both definitions — exercises the prefix-diff flush path.
    fn = parse_function(
        """
func @multi(%a, %b) {
entry:
  %keep = add %a, %b
  %acc = add %a, 1
  %acc = add %acc, %b
  %acc = mul %acc, %keep
  ret %acc
}
"""
    )
    assert_dense_equals_reference(fn, "multi-def")


# ---------------------------------------------------------------------- #
# VRIndex contract
# ---------------------------------------------------------------------- #
def test_vr_index_is_stable_first_occurrence_order():
    fn = construct_ssa(generate_program(1, 0, size="small"))
    index = VRIndex(fn)
    assert list(index.registers) == fn.virtual_registers()
    for i, reg in enumerate(index.registers):
        assert index.bit(reg) == i
        assert index.register_at(i) == reg
        assert reg in index
    mask = index.mask_of(index.registers[:5])
    assert index.registers_in(mask) == list(index.registers[:5])
    assert index.set_of(mask) == set(index.registers[:5])
    assert not index.is_stale(fn)


def test_vr_index_detects_ir_mutation():
    fn = parse_function(
        """
func @tiny(%a) {
entry:
  %x = add %a, 1
  ret %x
}
"""
    )
    index = VRIndex(fn)
    fn.block("entry").instructions.insert(
        0, make_copy(VirtualRegister("extra"), VirtualRegister("a"))
    )
    assert index.is_stale(fn)
    with pytest.raises(IRError):
        index.bit(VirtualRegister("extra"))


# ---------------------------------------------------------------------- #
# bugfix regression: stale φ incoming labels are typed errors
# ---------------------------------------------------------------------- #
def _diamond_with_phi():
    return parse_function(
        """
func @phi(%p, %a, %b) {
entry:
  cbr %p, left, right
left:
  %x0 = add %a, 1
  br join
right:
  %x1 = add %b, 2
  br join
join:
  %x = phi [%x0, left], [%x1, right]
  ret %x
}
"""
    )


def test_stale_phi_label_raises_typed_error_in_both_kernels():
    for stale_label in ("entry", "nowhere"):
        fn = _diamond_with_phi()
        phi = fn.block("join").phis[0]
        # CFG surgery gone wrong: the φ edge now names a non-predecessor.
        phi.incoming[stale_label] = phi.incoming.pop("left")
        with pytest.raises(PhiEdgeError) as err_set:
            liveness(fn)
        with pytest.raises(PhiEdgeError) as err_dense:
            dense_liveness(fn)
        for err in (err_set, err_dense):
            message = str(err.value)
            assert stale_label in message and "join" in message
        with pytest.raises(PhiEdgeError):
            validate_phi_edges(fn)


def test_valid_phi_edges_pass_validation():
    fn = _diamond_with_phi()
    validate_phi_edges(fn)
    assert_dense_equals_reference(fn, "valid-phi")
