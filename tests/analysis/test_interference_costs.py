"""Tests for interference graph construction and spill costs."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.analysis.frequency import block_frequencies
from repro.analysis.interference import build_interference_graph
from repro.analysis.liveness import max_live
from repro.analysis.spill_costs import spill_costs
from repro.analysis.ssa_construction import construct_ssa
from repro.graphs.chordal import is_chordal
from repro.graphs.cliques import maximum_clique_size
from repro.ir.parser import parse_function
from repro.ir.values import VirtualRegister
from repro.workloads.programs import GeneratorProfile, generate_function


def test_interference_straight_line():
    fn = parse_function(
        """
func @straight(%a, %b) {
entry:
  %x = add %a, %b
  %y = add %x, %b
  %z = add %y, %a
  ret %z
}
"""
    )
    graph = build_interference_graph(fn)
    # a is live until the third instruction: it interferes with x and y.
    assert graph.has_edge("a", "x")
    assert graph.has_edge("a", "y")
    # z is defined when only z remains live.
    assert not graph.has_edge("z", "a")
    # Parameters interfere with each other (both live at entry).
    assert graph.has_edge("a", "b")


def test_interference_includes_all_registers_as_vertices(diamond_function):
    graph = build_interference_graph(diamond_function)
    names = {reg.name for reg in diamond_function.virtual_registers()}
    assert set(graph.vertices()) == names


def test_interference_parameters_never_both_used_still_interfere():
    fn = parse_function(
        """
func @params(%a, %b) {
entry:
  ret %a
}
"""
    )
    graph = build_interference_graph(fn)
    assert graph.has_edge("a", "b")


def test_interference_phi_results_interfere_with_live_in(loop_function):
    ssa = construct_ssa(loop_function)
    graph = build_interference_graph(ssa)
    header_phis = ssa.block("header").phis
    targets = [phi.target.name for phi in header_phis]
    # φ results of the same block are simultaneously live: pairwise edges.
    for i, a in enumerate(targets):
        for b in targets[i + 1 :]:
            assert graph.has_edge(a, b)


def test_interference_weights_follow_spill_costs(loop_function):
    ssa = construct_ssa(loop_function)
    costs = spill_costs(ssa)
    graph = build_interference_graph(ssa, weights=costs)
    for reg, cost in costs.items():
        assert graph.weight(reg.name) == cost


def test_ssa_interference_is_chordal_on_fixtures(diamond_function, loop_function):
    for fn in (diamond_function, loop_function):
        ssa = construct_ssa(fn)
        graph = build_interference_graph(ssa)
        assert is_chordal(graph)


def test_clique_number_equals_max_live_on_fixtures(diamond_function, loop_function):
    for fn in (diamond_function, loop_function):
        ssa = construct_ssa(fn)
        graph = build_interference_graph(ssa)
        assert maximum_clique_size(graph) == max_live(ssa)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_ssa_interference_is_chordal_property(seed):
    """The paper's foundational property: SSA interference graphs are chordal."""
    profile = GeneratorProfile(statements=20, accumulators=5, loop_depth=2)
    fn = generate_function("prop", profile, rng=seed)
    ssa = construct_ssa(fn)
    graph = build_interference_graph(ssa)
    assert is_chordal(graph)
    # Cross-check with networkx to guard against a bug in our own test oracle.
    G = nx.Graph()
    G.add_nodes_from(graph.vertices())
    G.add_edges_from(graph.edges())
    assert nx.is_chordal(G)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_clique_number_equals_max_live_property(seed):
    """Maximal cliques correspond to simultaneously live variables (Hack)."""
    profile = GeneratorProfile(statements=20, accumulators=5, loop_depth=2)
    fn = generate_function("prop", profile, rng=seed)
    ssa = construct_ssa(fn)
    graph = build_interference_graph(ssa)
    assert maximum_clique_size(graph) == max_live(ssa)


# ---------------------------------------------------------------------- #
# spill costs
# ---------------------------------------------------------------------- #
def test_spill_costs_count_accesses():
    fn = parse_function(
        """
func @costs(%a) {
entry:
  %x = add %a, %a
  %y = add %x, 1
  ret %y
}
"""
    )
    costs = {reg.name: value for reg, value in spill_costs(fn).items()}
    # a: parameter store (1) + two uses (2) = 3, with unit load/store costs.
    assert costs["a"] == 3
    # x: one definition + one use.
    assert costs["x"] == 2
    # y: one definition + one use (ret).
    assert costs["y"] == 2


def test_spill_costs_weight_loop_accesses_higher(loop_function):
    costs = {reg.name: value for reg, value in spill_costs(loop_function).items()}
    # 'sum' is accessed inside the loop (frequency 10); 'result' only outside.
    assert costs["sum"] > costs["result"]


def test_spill_costs_respect_load_store_latencies(loop_function):
    cheap = spill_costs(loop_function, store_cost=1.0, load_cost=1.0)
    pricey = spill_costs(loop_function, store_cost=2.0, load_cost=5.0)
    for reg in cheap:
        assert pricey[reg] >= cheap[reg]


def test_spill_costs_phi_operands_charged_on_predecessor_edge(loop_function):
    ssa = construct_ssa(loop_function)
    frequencies = block_frequencies(ssa)
    costs = spill_costs(ssa, frequencies=frequencies)
    # Every φ of the header charges its body-side operand at loop frequency.
    header_phis = ssa.block("header").phis
    for phi in header_phis:
        body_value = phi.incoming.get("body")
        if isinstance(body_value, VirtualRegister):
            assert costs[body_value] >= frequencies["body"]


def test_spill_costs_cover_every_register(diamond_function):
    costs = spill_costs(diamond_function)
    assert set(costs) == set(diamond_function.virtual_registers())


def test_dead_block_register_no_longer_outbids_reachable_use_register():
    """Regression for the dead-code cost bug.

    %hot is defined and genuinely used on the reachable path.  %dead is
    defined right next to it (so the two interfere) but its three uses all
    sit in an unreachable block.  Under the old model the dead block was
    billed at frequency 1.0, making %dead (cost 4) more expensive to spill
    than %hot (cost 2) — with one register every allocator kept %dead and
    spilled the genuinely used %hot.  Dead accesses now cost nothing, so the
    reachable-use register wins the contested register.
    """
    from repro.alloc.layered import LayeredOptimalAllocator
    from repro.alloc.problem import AllocationProblem
    from repro.analysis.spill_costs import DEAD_ACCESS_EPSILON

    fn = parse_function(
        """
func @deadcost() {
entry:
  %hot = add 1, 2
  %dead = mul 3, 4
  br live
unreachable:
  %ghost = add %dead, 1
  store %dead, %dead
  store %dead, %ghost
  store %dead, %dead
  br live
live:
  %r = add %hot, 1
  ret %r
}
"""
    )
    costs = spill_costs(fn)
    hot = costs[VirtualRegister("hot")]
    dead = costs[VirtualRegister("dead")]
    ghost = costs[VirtualRegister("ghost")]
    # ghost is defined and used only in dead code: floored at the epsilon.
    assert ghost == DEAD_ACCESS_EPSILON
    assert hot > dead  # old model: dead (1 store + 6 dead loads = 7.0) > hot (2.0)

    graph = build_interference_graph(fn)
    assert graph.has_edge("hot", "dead")
    problem = AllocationProblem(graph=graph, num_registers=1, name="deadcost")
    result = LayeredOptimalAllocator().allocate(problem)
    allocated = {str(v) for v in result.allocated}
    spilled = {str(v) for v in result.spilled}
    # The reachable-use register must not lose the register file to a
    # register whose accesses sit in dead code.
    assert "hot" in allocated
    assert "dead" in spilled
