"""Section 4 complexity claim — layered allocation scales as O(R · (|V| + |E|)).

Two checks, both on random chordal instances:

* ``test_layered_runtime_grows_subquadratically``: BFPL's runtime on graphs
  of increasing size grows roughly linearly in |V| + |E| (within a generous
  factor, since constant factors and Python overheads dominate at small
  sizes);
* ``test_nl_shared_peo_speedup_at_r16``: the NL allocator's hot loop is at
  least 3x faster than the seed implementation, which re-materialized
  ``graph.subgraph(candidates)`` and re-ran a maximum-cardinality search
  every round (:func:`seed_optimal_layer`, the same reference kernel as
  ``tests/alloc/test_layered_shared_peo.py``, monkeypatched in for
  ``repro.alloc.layered.optimal_layer``), whereas the current fast path
  computes one PEO per problem and runs Frank's algorithm over a candidate
  mask.  The high-pressure interval instance (register pressure ≫ R, so all
  ``R`` rounds execute on a large candidate set) is where the per-round
  asymptotics dominate.  A wall-clock gate: the CI perf-smoke job runs it.
"""

import time

import pytest

from repro.alloc import get_allocator, layered
from repro.alloc.layered import LayeredOptimalAllocator
from repro.alloc.problem import AllocationProblem
from repro.graphs.generators import random_chordal_graph, random_interval_graph
from repro.graphs.stable_set import maximum_weighted_stable_set

SIZES = (100, 200, 400, 800)

#: |V| of the high-pressure interval instance of the R=16 speedup check.
PRESSURE_SIZE = 1000


def _problem(size: int) -> AllocationProblem:
    graph = random_chordal_graph(size, rng=size, extra_edge_prob=0.4)
    return AllocationProblem(graph=graph, num_registers=8, name=f"scaling-{size}")


def _pressure_problem(size: int, num_registers: int = 16) -> AllocationProblem:
    """A dense interval-graph instance whose pressure far exceeds R."""
    graph, _ = random_interval_graph(size, rng=size, span=size, max_length=size // 10)
    return AllocationProblem(graph=graph, num_registers=num_registers, name=f"pressure-{size}")


def seed_optimal_layer(graph, candidates, peo, weights=None):
    """The seed kernel: materialize the candidate subgraph and search it
    with a fresh maximum-cardinality search (``peo`` is ignored)."""
    if not candidates:
        return []
    subgraph = graph.subgraph(candidates)
    if weights is not None:
        weights = {v: weights[v] for v in subgraph.vertices()}
    return maximum_weighted_stable_set(subgraph, weights=weights)


def _with_peo(problem: AllocationProblem) -> AllocationProblem:
    """``problem`` with its PEO already cached: the seed kernel never reads
    it, so the seed path's timing must not pay for it either."""
    problem.peo
    return problem


def _best_time(allocator, problem_factory, repeats: int = 3) -> float:
    """Best-of-N wall time of one allocation on a fresh problem each run."""
    best = float("inf")
    for _ in range(repeats):
        problem = problem_factory()
        start = time.perf_counter()
        allocator.allocate(problem)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def scaling_problems():
    return {size: _problem(size) for size in SIZES}


def test_layered_runtime_grows_subquadratically(scaling_problems):
    """Direct check of the quasi-linear growth claim."""
    allocator = get_allocator("BFPL")
    timings = {}
    for size, problem in scaling_problems.items():
        start = time.perf_counter()
        allocator.allocate(problem)
        timings[size] = time.perf_counter() - start

    small, large = SIZES[0], SIZES[-1]
    work_small = len(scaling_problems[small].graph) + scaling_problems[small].graph.num_edges()
    work_large = len(scaling_problems[large].graph) + scaling_problems[large].graph.num_edges()
    work_ratio = work_large / work_small
    time_ratio = timings[large] / max(timings[small], 1e-6)
    # Allow a generous slack factor over the linear prediction; a quadratic
    # implementation would blow well past it.
    assert time_ratio <= work_ratio * 6, (timings, work_ratio, time_ratio)


def test_nl_shared_peo_speedup_at_r16(monkeypatch):
    """Acceptance check: ≥3× NL speedup at R=16 on the pressure instance.

    Both paths are timed on fresh problems (so the fast path's one-off PEO
    computation is *included* in its time, and the seed path's per-round
    subgraphs and searches in its) and must agree on the spill cost.
    """
    size = PRESSURE_SIZE
    allocator = LayeredOptimalAllocator()
    fast_cost = allocator.allocate(_pressure_problem(size)).spill_cost
    fast_time = _best_time(allocator, lambda: _pressure_problem(size))

    monkeypatch.setattr(layered, "optimal_layer", seed_optimal_layer)
    legacy_cost = allocator.allocate(_pressure_problem(size)).spill_cost
    assert fast_cost == pytest.approx(legacy_cost)
    legacy_time = _best_time(allocator, lambda: _with_peo(_pressure_problem(size)))
    speedup = legacy_time / max(fast_time, 1e-9)
    print(f"\nNL R=16 |V|={size}: seed {legacy_time * 1e3:.1f} ms, "
          f"shared-PEO {fast_time * 1e3:.1f} ms, speedup {speedup:.2f}x")
    assert speedup >= 3.0, (legacy_time, fast_time, speedup)
