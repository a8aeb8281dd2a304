"""Section 4 complexity claim — layered allocation scales as O(R · (|V| + |E|)).

Benchmarks the BFPL allocator (and the baselines, for contrast) on random
chordal graphs of increasing size, and checks that the layered allocator's
runtime grows roughly linearly in |V| + |E| (within a generous factor, since
constant factors and Python overheads dominate at small sizes).

Also reports the before/after throughput of the NL allocator's hot loop: the
seed implementation re-materialized ``graph.subgraph(candidates)`` and re-ran
a maximum-cardinality search every round (:func:`seed_optimal_layer`, the
same reference kernel as ``tests/alloc/test_layered_shared_peo.py``,
monkeypatched in for ``repro.alloc.layered.optimal_layer``), whereas the
current fast path computes one PEO per problem and runs Frank's algorithm
over a candidate mask.  The high-pressure interval suite (register pressure
≫ R, so all ``R`` rounds execute on a large candidate set) is where the
per-round asymptotics dominate.
"""

import time

import pytest

from repro.alloc import get_allocator, layered
from repro.alloc.layered import LayeredOptimalAllocator
from repro.alloc.problem import AllocationProblem
from repro.graphs.generators import random_chordal_graph, random_interval_graph
from repro.graphs.stable_set import maximum_weighted_stable_set

SIZES = (100, 200, 400, 800)

#: high-pressure chordal instances (|V|, span, max interval length); the last
#: entry is the largest suite, used by the R=16 speedup acceptance check.
PRESSURE_SIZES = (300, 600, 1000)


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


@pytest.mark.parametrize("size", SIZES)
def test_bfpl_runtime_scaling(benchmark, scaling_problems, size):
    problem = scaling_problems[size]
    allocator = get_allocator("BFPL")
    benchmark.extra_info["vertices"] = len(problem.graph)
    benchmark.extra_info["edges"] = problem.graph.num_edges()
    benchmark(allocator.allocate, problem)


@pytest.mark.parametrize("allocator_name", ["NL", "BFPL", "GC", "LH"])
def test_allocator_runtime_on_medium_graph(benchmark, allocator_name):
    problem = _problem(400)
    allocator = get_allocator(allocator_name)
    benchmark(allocator.allocate, problem)


def test_layered_runtime_grows_subquadratically(scaling_problems):
    """Direct check of the quasi-linear growth claim (no pytest-benchmark)."""
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


# ---------------------------------------------------------------------- #
# NL hot loop: seed (per-round subgraph + MCS) vs shared-PEO mask path
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("size", PRESSURE_SIZES)
@pytest.mark.parametrize("mode", ["seed-subgraph", "shared-peo"])
def test_nl_hot_loop_throughput(benchmark, monkeypatch, mode, size):
    """Before/after layered-allocator throughput on the pressure suite."""
    allocator = LayeredOptimalAllocator()
    problem = _pressure_problem(size)
    benchmark.extra_info["vertices"] = len(problem.graph)
    benchmark.extra_info["edges"] = problem.graph.num_edges()
    benchmark.extra_info["max_pressure"] = problem.max_pressure
    graph = problem.graph
    if mode == "seed-subgraph":
        monkeypatch.setattr(layered, "optimal_layer", seed_optimal_layer)
        _with_peo(problem)

        def run():
            allocator.allocate(problem)

    else:

        def run():
            # Fresh problem (so the shared-PEO path pays its PEO every run)
            # around a pre-built graph (so generation stays out of the timing).
            allocator.allocate(AllocationProblem(graph=graph, num_registers=16))

    benchmark(run)


def test_nl_shared_peo_speedup_at_r16(monkeypatch):
    """Acceptance check: ≥3× NL speedup at R=16 on the largest pressure suite.

    Both paths are timed on fresh problems (so the fast path's one-off PEO
    computation is *included* in its time, and the seed path's per-round
    subgraphs and searches in its) and must agree on the spill cost.
    """
    size = PRESSURE_SIZES[-1]
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
