#!/usr/bin/env python3
"""Non-chordal (JIT-style) study: the layered heuristic vs linear scan.

Mirrors the paper's SPEC JVM98 / JikesRVM experiment in miniature: generate a
few "JIT methods", run the *non-SSA* pipeline (φ-web coalescing) to obtain
general interference graphs plus live intervals, and compare the layered
heuristic (LH) against the linear scans (LS, BLS), graph coloring (GC) and
the clique-relaxation optimum across register counts.

Run with::

    python examples/jit_allocation_study.py [seed]
"""

import sys

from repro.alloc import get_allocator
from repro.pipeline import Pipeline
from repro.workloads.programs import GeneratorProfile, generate_function

ALLOCATORS = ("LS", "BLS", "GC", "LH", "Optimal")
REGISTER_COUNTS = (2, 4, 6, 8, 12, 16)
METHODS = 6


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 98
    profile = GeneratorProfile(
        statements=60, accumulators=10, loop_depth=2, reuse_probability=0.55
    )
    front_end = Pipeline.from_spec(
        target="jikesrvm-ia32", ssa=False, stages="liveness,interference,extract"
    )
    problems = []
    for index in range(METHODS):
        method = generate_function(f"jit_method_{index}", profile, rng=seed + index)
        problems.append(front_end.run(method).problem)

    chordal_count = sum(problem.is_chordal for problem in problems)
    print(f"generated {len(problems)} JIT methods "
          f"({len(problems) - chordal_count} with non-chordal interference graphs)")

    header = "allocator | " + " ".join(f"R={count:<4}" for count in REGISTER_COUNTS)
    print(header)
    print("-" * len(header))

    # Pre-compute the optimum per (method, register count) for normalization.
    optimal_costs = {
        (index, count): get_allocator("Optimal").allocate(problem.with_registers(count)).spill_cost
        for index, problem in enumerate(problems)
        for count in REGISTER_COUNTS
    }

    for name in ALLOCATORS:
        cells = []
        for count in REGISTER_COUNTS:
            ratios = []
            for index, problem in enumerate(problems):
                cost = get_allocator(name).allocate(problem.with_registers(count)).spill_cost
                optimum = optimal_costs[(index, count)]
                if optimum > 0:
                    ratios.append(cost / optimum)
                elif cost == 0:
                    ratios.append(1.0)
            mean = sum(ratios) / len(ratios) if ratios else float("nan")
            cells.append(f"{mean:6.3f}")
        print(f"{name:<9} | " + " ".join(cells))

    print("\n(the layered heuristic should track the optimum closely and beat")
    print(" both linear scans and graph coloring, as in the paper's Figure 14)")


if __name__ == "__main__":
    main()
