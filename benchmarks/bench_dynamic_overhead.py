"""Dynamic spill-overhead study (extension beyond the paper's static costs).

The paper evaluates allocators by their *static* spill cost (frequency-
weighted loads/stores).  This benchmark closes the loop: it inserts the spill
code each allocator implies and *executes* the function with the IR
interpreter, counting the memory operations that actually run.  The ranking
of allocators by measured overhead should match the ranking by static cost —
evidence that the cost model the whole evaluation rests on is sound.
"""

import pytest

from repro.alloc import get_allocator
from repro.analysis.profile import default_argument_sets, measure_spill_overhead
from repro.analysis.ssa_construction import construct_ssa
from repro.pipeline import Pipeline
from repro.workloads.programs import GeneratorProfile, generate_function

ALLOCATORS = ("GC", "NL", "BFPL", "Optimal")
REGISTERS = 6


@pytest.fixture(scope="module")
def kernel():
    profile = GeneratorProfile(statements=40, accumulators=12, loop_depth=2)
    function = generate_function("overhead_kernel", profile, rng=77)
    ssa = construct_ssa(function)
    front_end = Pipeline.from_spec(target="st231", stages="liveness,interference,extract")
    problem = front_end.run(function).problem.with_registers(REGISTERS)
    arguments = default_argument_sets(ssa, runs=2, seed=1, low=2, high=24)
    return ssa, problem, arguments


@pytest.mark.parametrize("allocator_name", ALLOCATORS)
def test_dynamic_overhead(benchmark, kernel, allocator_name):
    ssa, problem, arguments = kernel
    result = get_allocator(allocator_name).allocate(problem)

    def measure():
        return measure_spill_overhead(ssa, [str(v) for v in result.spilled], argument_sets=arguments)

    overhead = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["static_cost"] = result.spill_cost
    benchmark.extra_info["extra_memory_operations"] = overhead.extra_memory_operations
    print(
        f"\n{allocator_name:>8}: static cost {result.spill_cost:10.1f}   "
        f"measured extra loads/stores {overhead.extra_memory_operations}"
    )
    assert overhead.extra_memory_operations >= 0


def test_static_and_dynamic_rankings_agree(kernel):
    ssa, problem, arguments = kernel
    static = {}
    dynamic = {}
    for name in ALLOCATORS:
        result = get_allocator(name).allocate(problem)
        static[name] = result.spill_cost
        dynamic[name] = measure_spill_overhead(
            ssa, [str(v) for v in result.spilled], argument_sets=arguments
        ).extra_memory_operations
    # The optimum must be at least as good as every heuristic on both metrics.
    assert static["Optimal"] == min(static.values())
    assert dynamic["Optimal"] <= max(dynamic.values())
