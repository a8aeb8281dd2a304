#!/usr/bin/env python3
"""Quickstart: allocate registers for a small hand-written function.

This walks the full decoupled pipeline of the paper on a tiny program:

1. build a function with the IR builder (a loop with a few accumulators);
2. convert it to SSA and extract the weighted interference graph;
3. run the biased fixed-point layered allocator (BFPL) with a small register
   file and compare it against the exact optimum;
4. turn the allocation into a concrete register assignment and insert spill
   code for the spilled variables.

Run with::

    python examples/quickstart.py
"""

from repro.alloc import get_allocator
from repro.alloc.assignment import assign_registers
from repro.alloc.spill_code import insert_spill_code
from repro.analysis.ssa_construction import construct_ssa
from repro.ir.builder import FunctionBuilder
from repro.ir.printer import print_function
from repro.pipeline import Pipeline


def build_dot_product() -> "FunctionBuilder":
    """A dot-product-style kernel with a couple of extra accumulators."""
    fb = FunctionBuilder("dot_product", params=["n", "base_a", "base_b"])
    entry = fb.new_block("entry")
    header = fb.new_block("header")
    body = fb.new_block("body")
    done = fb.new_block("done")

    fb.set_block(entry)
    fb.copy("i", 0)
    fb.copy("sum", 0)
    fb.copy("sum_sq", 0)
    fb.copy("checksum", 0)
    fb.br(header)

    fb.set_block(header)
    fb.cmp("cond", "i", "n")
    fb.cbr("cond", body, done)

    fb.set_block(body)
    fb.add("addr_a", "base_a", "i")
    fb.add("addr_b", "base_b", "i")
    fb.load("value_a", "addr_a")
    fb.load("value_b", "addr_b")
    fb.mul("product", "value_a", "value_b")
    fb.add("sum", "sum", "product")
    fb.mul("square", "product", "product")
    fb.add("sum_sq", "sum_sq", "square")
    fb.add("checksum", "checksum", "value_a")
    fb.add("i", "i", 1)
    fb.br(header)

    fb.set_block(done)
    fb.add("result", "sum", "sum_sq")
    fb.add("result2", "result", "checksum")
    fb.ret("result2")
    return fb


def main() -> None:
    function = build_dot_product().finish()
    print("=== input function (not in SSA) ===")
    print(print_function(function))

    ssa = construct_ssa(function)
    print("\n=== after SSA construction ===")
    print(print_function(ssa))

    # Extract the weighted interference graph for the ST231 target with the
    # pipeline's front-end stages, then pretend we only have 4 allocatable
    # registers to force some spilling.
    front_end = Pipeline.from_spec(target="st231", stages="liveness,interference,extract")
    problem = front_end.run(function).problem.with_registers(4)
    print(
        f"\ninterference graph: |V|={len(problem.graph)} |E|={problem.graph.num_edges()} "
        f"chordal={problem.is_chordal} MaxLive={problem.max_pressure}"
    )

    bfpl = get_allocator("BFPL").allocate(problem)
    optimal = get_allocator("Optimal").allocate(problem)
    print(f"\nBFPL    : spilled {sorted(bfpl.spilled)} (cost {bfpl.spill_cost:.1f})")
    print(f"Optimal : spilled {sorted(optimal.spilled)} (cost {optimal.spill_cost:.1f})")

    mapping = assign_registers(problem.graph, bfpl.allocated, problem.num_registers)
    print("\nregister assignment (BFPL):")
    for variable in sorted(mapping):
        print(f"  {variable:>14} -> {mapping[variable]}")

    rewritten, stats = insert_spill_code(ssa, [str(v) for v in bfpl.spilled])
    print(
        f"\nspill code inserted: {stats['stores']} stores, {stats['loads']} loads "
        f"({rewritten.num_instructions() - ssa.num_instructions()} extra instructions)"
    )


if __name__ == "__main__":
    main()
