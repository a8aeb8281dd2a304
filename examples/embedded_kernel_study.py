#!/usr/bin/env python3
"""Chordal-graph study on a synthetic embedded kernel (ST231 / ARMv7 style).

Mirrors the paper's Open64 experiments in miniature: generate a high-pressure
embedded kernel, extract its chordal interference graph through the SSA
pipeline, and compare every allocator of Figure 8-10 over a sweep of register
counts, reporting costs normalized to the optimum.

Run with::

    python examples/embedded_kernel_study.py [seed]
"""

import sys

from repro.alloc import get_allocator
from repro.targets import ARMV7_CORTEX_A8, ST231
from repro.pipeline import Pipeline
from repro.workloads.programs import GeneratorProfile, generate_function

ALLOCATORS = ("GC", "NL", "FPL", "BL", "BFPL", "Optimal")
REGISTER_COUNTS = (1, 2, 4, 8, 16, 32)


def run_study(seed: int) -> None:
    profile = GeneratorProfile(statements=45, accumulators=18, loop_depth=3)
    kernel = generate_function("fir_like_kernel", profile, rng=seed)

    for target in (ST231, ARMV7_CORTEX_A8):
        front_end = Pipeline.from_spec(target=target, stages="liveness,interference,extract")
        problem_full = front_end.run(kernel).problem
        print(f"\n### target {target.name}: |V|={len(problem_full.graph)} "
              f"|E|={problem_full.graph.num_edges()} MaxLive={problem_full.max_pressure}")

        header = "allocator | " + " ".join(f"R={count:<4}" for count in REGISTER_COUNTS)
        print(header)
        print("-" * len(header))

        optimal_costs = {}
        for count in REGISTER_COUNTS:
            optimal_costs[count] = get_allocator("Optimal").allocate(
                problem_full.with_registers(count)
            ).spill_cost

        for name in ALLOCATORS:
            cells = []
            for count in REGISTER_COUNTS:
                cost = get_allocator(name).allocate(problem_full.with_registers(count)).spill_cost
                optimum = optimal_costs[count]
                if optimum > 0:
                    cells.append(f"{cost / optimum:6.3f}")
                else:
                    cells.append("  1.000" if cost == 0 else "    inf")
            print(f"{name:<9} | " + " ".join(cells))


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2013
    run_study(seed)


if __name__ == "__main__":
    main()
