"""Tests for profile-guided frequencies and dynamic spill overhead."""

import pytest

from repro.alloc import get_allocator
from repro.analysis.profile import (
    default_argument_sets,
    measure_spill_overhead,
    profile_block_frequencies,
    profiled_spill_costs,
)
from repro.analysis.spill_costs import spill_costs
from repro.analysis.ssa_construction import construct_ssa
from repro.ir.values import VirtualRegister
from repro.workloads.programs import GeneratorProfile, generate_function
from tests.conftest import front_end_problem


def test_default_argument_sets_deterministic(loop_function):
    assert default_argument_sets(loop_function, runs=4, seed=9) == default_argument_sets(
        loop_function, runs=4, seed=9
    )
    assert len(default_argument_sets(loop_function, runs=4)) == 4
    assert all(len(args) == 1 for args in default_argument_sets(loop_function))


def test_profile_block_frequencies_of_loop(loop_function):
    frequencies = profile_block_frequencies(loop_function, argument_sets=[[4], [8]])
    assert frequencies["entry"] == 1.0
    assert frequencies["body"] == pytest.approx(6.0)  # (4 + 8) / 2
    assert frequencies["header"] == pytest.approx(7.0)
    assert frequencies["exit"] == 1.0


def test_profile_frequencies_of_untaken_branch(diamond_function):
    frequencies = profile_block_frequencies(diamond_function, argument_sets=[[10, 1]])
    assert frequencies["then"] == 1.0
    assert frequencies["else"] == 0.0


def test_profiled_spill_costs_track_real_loop_trip_counts(loop_function):
    # With a huge trip count the loop-carried variables dominate much more
    # than the static 10x-per-level estimate.
    static = {reg.name: cost for reg, cost in spill_costs(loop_function).items()}
    profiled = {
        reg.name: cost
        for reg, cost in profiled_spill_costs(loop_function, argument_sets=[[1000]]).items()
    }
    assert profiled["sum"] / max(profiled["result"], 1) > static["sum"] / max(static["result"], 1)


def test_profiled_costs_cover_all_registers(diamond_function):
    costs = profiled_spill_costs(diamond_function, argument_sets=[[1, 2]])
    assert set(costs) == set(diamond_function.virtual_registers())
    assert all(isinstance(reg, VirtualRegister) for reg in costs)


def test_measure_spill_overhead_is_positive_when_spilling_hot_variable(loop_function):
    ssa = construct_ssa(loop_function)
    overhead = measure_spill_overhead(ssa, ["sum.1"], argument_sets=[[50]])
    assert overhead.extra_memory_operations > 0
    assert overhead.extra_steps > 0
    assert overhead.spilled_steps > overhead.baseline_steps


def test_measure_spill_overhead_zero_for_empty_spill_set(loop_function):
    ssa = construct_ssa(loop_function)
    overhead = measure_spill_overhead(ssa, [], argument_sets=[[10]])
    assert overhead.extra_memory_operations == 0
    assert overhead.extra_steps == 0


def test_spilling_cold_variable_costs_less_than_hot_one(loop_function):
    ssa = construct_ssa(loop_function)
    # 'result.0' only exists after the loop; 'i.1' is updated every iteration.
    cold = measure_spill_overhead(ssa, ["result.0"], argument_sets=[[60]])
    hot = measure_spill_overhead(ssa, ["i.1"], argument_sets=[[60]])
    assert cold.extra_memory_operations < hot.extra_memory_operations


def test_static_cost_ranks_match_dynamic_overhead_on_average():
    """The static spill-everywhere cost should correlate with measured overhead."""
    profile = GeneratorProfile(statements=20, accumulators=5, loop_depth=1, loop_probability=0.5)
    fn = generate_function("corr", profile, rng=3)
    ssa = construct_ssa(fn)
    costs = {reg.name: cost for reg, cost in spill_costs(ssa).items()}
    ranked = sorted(costs, key=costs.get)
    cheap, dear = ranked[0], ranked[-1]
    arguments = [[5, 9, 13]]
    cheap_overhead = measure_spill_overhead(ssa, [cheap], argument_sets=arguments)
    dear_overhead = measure_spill_overhead(ssa, [dear], argument_sets=arguments)
    assert cheap_overhead.extra_memory_operations <= dear_overhead.extra_memory_operations + 2


def test_optimal_allocation_has_no_higher_dynamic_overhead_than_spilling_everything():
    profile = GeneratorProfile(statements=25, accumulators=6, loop_depth=2)
    fn = generate_function("dyn", profile, rng=11)
    problem = front_end_problem(fn).with_registers(4)
    ssa = construct_ssa(fn)
    arguments = [[3, 5, 7]]
    optimal = get_allocator("Optimal").allocate(problem)
    optimal_overhead = measure_spill_overhead(ssa, [str(v) for v in optimal.spilled], argument_sets=arguments)
    everything = measure_spill_overhead(ssa, [str(v) for v in problem.graph.vertices()], argument_sets=arguments)
    assert optimal_overhead.extra_memory_operations <= everything.extra_memory_operations
