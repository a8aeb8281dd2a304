"""repro — layered register allocation (Diouf, Cohen, Rastello, CGO 2013).

A from-scratch reproduction of the paper *"A Polynomial Spilling Heuristic:
Layered Allocation"*: a mini SSA compiler substrate, chordal-graph machinery,
the layered family of spill-everywhere allocators (NL, BL, FPL, BFPL, LH) and
every baseline the paper compares against (Chaitin–Briggs, linear scan,
Belady linear scan, ILP optimum), plus the experiment harness regenerating
Figures 8–15.

Quick start
-----------
>>> from repro import Pipeline
>>> from repro.workloads import generate_function
>>> function = generate_function("demo", rng=42)
>>> context = Pipeline.from_spec("BFPL", target="st231", registers=8).run(function)
>>> context.spill_cost >= 0 and context.report.feasible
True

The :mod:`repro.pipeline` engine is the one front end: declarative specs,
batch runs with a process pool, and allocate-stage caching through the
experiment store.  For an allocation problem alone, run the front-end stages
and hand the problem to any allocator:

>>> from repro.alloc import get_allocator
>>> front_end = Pipeline.from_spec(target="st231", stages="liveness,interference,extract")
>>> problem = front_end.run(function).problem.with_registers(8)
>>> get_allocator("BFPL").allocate(problem).spill_cost >= 0
True
"""

from repro.alloc import (
    AllocationProblem,
    AllocationResult,
    available_allocators,
    get_allocator,
)
from repro.graphs import Graph
from repro.pipeline import Pipeline, PipelineContext, PipelineSpec

__version__ = "1.0.0"

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "available_allocators",
    "get_allocator",
    "Graph",
    "Pipeline",
    "PipelineContext",
    "PipelineSpec",
    "__version__",
]
