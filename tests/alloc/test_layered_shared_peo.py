"""The shared-PEO layered fast path must be behaviour-preserving.

The NL/BL/FPL/BFPL allocators compute one perfect elimination order per
problem and run Frank's algorithm over candidate masks; the seed
implementation materialized a fresh subgraph and recomputed a
maximum-cardinality search every round.  That seed kernel lives on here as
:func:`seed_optimal_layer`, and the ``seed_path`` fixture runs any layered
allocator (constrained or not) with it in place of
``repro.alloc.layered.optimal_layer``.  These tests pin down that the two
kernels agree layer by layer, that every layer is a true maximum weighted
stable set (brute-force cross-check), and that the fast path never calls
``Graph.subgraph`` in its hot loop.

Scope of the guarantee: each layer's *weight* is provably identical (both
paths return a maximum weighted stable set of the remaining candidates);
the *chosen set* — and hence later layers — is additionally identical
whenever the per-layer maximum is unique, which holds on the generators and
corpora used here (generic real-valued weights).  On crafted instances with
exact weight ties the PEO-dependent tie-break may differ between the paths;
see the documented deviation in ``repro.alloc.layered``.
"""

import random

import pytest

from repro.alloc import layered
from repro.alloc.biased import BiasedLayeredAllocator
from repro.alloc.constraints import auto_constraints
from repro.alloc.fixed_point import BiasedFixedPointLayeredAllocator, FixedPointLayeredAllocator
from repro.alloc.layered import LayeredOptimalAllocator, optimal_layer
from repro.alloc.problem import AllocationProblem
from repro.graphs.generators import random_chordal_graph, random_interval_graph
from repro.graphs.graph import Graph
from repro.graphs.stable_set import (
    brute_force_max_weight_stable_set,
    is_stable_set,
    maximum_weighted_stable_set,
)
from repro.targets import get_target
from repro.workloads.corpus import build_corpus
from tests.conftest import count_calls

N_PROPERTY_GRAPHS = 200
MAX_VERTICES = 18
BRUTE_FORCE_MAX_VERTICES = 12
LAYERED_ALLOCATORS = pytest.mark.parametrize(
    "allocator_factory",
    [
        LayeredOptimalAllocator,
        BiasedLayeredAllocator,
        FixedPointLayeredAllocator,
        BiasedFixedPointLayeredAllocator,
    ],
    ids=["NL", "BL", "FPL", "BFPL"],
)


def seed_optimal_layer(graph, candidates, peo, weights=None):
    """The seed kernel: materialize the candidate subgraph and search it
    with a fresh maximum-cardinality search (``peo`` is ignored)."""
    if not candidates:
        return []
    subgraph = graph.subgraph(candidates)
    if weights is not None:
        weights = {v: weights[v] for v in subgraph.vertices()}
    return maximum_weighted_stable_set(subgraph, weights=weights)


@pytest.fixture
def seed_path(monkeypatch):
    """``seed_path(allocator, problem)``: allocate with the seed kernel."""

    def allocate(allocator, problem):
        with monkeypatch.context() as patch:
            patch.setattr(layered, "optimal_layer", seed_optimal_layer)
            return allocator.allocate(problem)

    return allocate


def _layers(graph, num_registers, kernel, peo):
    """Replicate NL's round loop with ``kernel``, recording each layer."""
    candidates = set(graph.vertices())
    layers = []
    rounds = 0
    while candidates and rounds < num_registers:
        layer = kernel(graph, candidates, peo)
        if not layer:
            break
        layers.append(list(layer))
        candidates.difference_update(layer)
        rounds += 1
    return layers


@pytest.mark.parametrize("case", range(N_PROPERTY_GRAPHS))
def test_old_and_new_paths_agree_layer_by_layer(case, seed_path):
    """Property test: identical layer-by-layer spill costs on random graphs.

    The old path (per-round subgraph + MCS) and the new path (one shared PEO,
    mask-based Frank) must produce layers of identical weight at every round,
    and each layer must match the brute-force maximum on small graphs.
    """
    rng = random.Random(case)
    n = rng.randint(2, MAX_VERTICES)
    graph = random_chordal_graph(n, rng=case)
    num_registers = rng.randint(1, 4)
    problem = AllocationProblem(graph=graph, num_registers=num_registers)

    old_layers = _layers(graph, num_registers, seed_optimal_layer, problem.peo)
    new_layers = _layers(graph, num_registers, optimal_layer, problem.peo)

    assert len(old_layers) == len(new_layers), (case, old_layers, new_layers)
    remaining_old = set(graph.vertices())
    remaining_new = set(graph.vertices())
    for old_layer, new_layer in zip(old_layers, new_layers):
        assert is_stable_set(graph, old_layer)
        assert is_stable_set(graph, new_layer)
        old_weight = graph.total_weight(old_layer)
        new_weight = graph.total_weight(new_layer)
        assert old_weight == pytest.approx(new_weight), (case, old_layers, new_layers)
        if n <= BRUTE_FORCE_MAX_VERTICES:
            best_old = brute_force_max_weight_stable_set(graph.subgraph(remaining_old))
            assert old_weight == pytest.approx(graph.total_weight(best_old))
            best_new = brute_force_max_weight_stable_set(graph.subgraph(remaining_new))
            assert new_weight == pytest.approx(graph.total_weight(best_new))
        remaining_old.difference_update(old_layer)
        remaining_new.difference_update(new_layer)

    # End-to-end spill costs through the allocator API agree as well.
    old_result = seed_path(LayeredOptimalAllocator(), problem)
    new_result = LayeredOptimalAllocator().allocate(problem)
    assert new_result.spill_cost == pytest.approx(old_result.spill_cost)


@LAYERED_ALLOCATORS
def test_all_layered_allocators_match_seed_path(allocator_factory, seed_path):
    """Every layered variant agrees with its seed path on random instances."""
    for seed in range(40):
        rng = random.Random(seed * 7919)
        graph = random_chordal_graph(rng.randint(2, 24), rng=seed * 31 + 5)
        for num_registers in (1, 2, 3):
            problem = AllocationProblem(graph=graph, num_registers=num_registers)
            old = seed_path(allocator_factory(), problem)
            new = allocator_factory().allocate(
                AllocationProblem(graph=graph, num_registers=num_registers)
            )
            assert new.spill_cost == pytest.approx(old.spill_cost), (seed, num_registers)


@LAYERED_ALLOCATORS
def test_constrained_layered_allocators_match_seed_path(allocator_factory, seed_path):
    """The constrained layering (``RegisterLayers.grow``) agrees with the
    seed kernel too: classes, pre-colorings and aliases on riscv and st231."""
    for seed in range(40):
        rng = random.Random(seed * 7919)
        graph = random_chordal_graph(rng.randint(2, 24), rng=seed * 31 + 5)
        for target, fraction in (("riscv", 0.25), ("riscv", 0.6), ("st231", 0.6)):
            constraints = auto_constraints(graph, get_target(target), fraction=fraction)
            for num_registers in (1, 2, 3):
                problem = AllocationProblem(graph=graph, num_registers=num_registers, constraints=constraints)
                old = seed_path(allocator_factory(), problem)
                new = allocator_factory().allocate(problem)
                assert new.stats["constrained"] and old.stats == new.stats, (seed, target, num_registers)
                assert new.spill_cost == pytest.approx(old.spill_cost), (seed, target, num_registers)


def test_nl_identical_spill_costs_on_existing_corpora(seed_path):
    """Acceptance: NL matches the seed path on the standard corpora."""
    for suite in ("spec2000int", "eembc", "lao_kernels"):
        corpus = build_corpus(suite, seed=2013, scale=0.2)
        for problem in corpus:
            for num_registers in (1, 2, 4, 8, 16):
                instance = problem.with_registers(num_registers)
                old = seed_path(LayeredOptimalAllocator(), instance)
                new = LayeredOptimalAllocator().allocate(instance)
                assert new.spill_cost == pytest.approx(old.spill_cost), (
                    suite,
                    problem.name,
                    num_registers,
                )


def test_nl_hot_loop_makes_zero_subgraph_calls(monkeypatch, seed_path):
    """Acceptance: the NL hot loop never materializes a subgraph copy."""
    graph, _ = random_interval_graph(120, rng=3, span=120, max_length=30)
    problem = AllocationProblem(graph=graph, num_registers=16)
    assert problem.max_pressure > problem.num_registers  # real spilling work

    calls = {"subgraph": 0}
    original = Graph.subgraph

    def counting_subgraph(self, keep):
        calls["subgraph"] += 1
        return original(self, keep)

    monkeypatch.setattr(Graph, "subgraph", counting_subgraph)
    result = LayeredOptimalAllocator().allocate(problem)
    assert calls["subgraph"] == 0
    assert result.stats["layers"] == 16

    # The seed kernel, by contrast, copies once per round.
    legacy = seed_path(LayeredOptimalAllocator(), AllocationProblem(graph=graph, num_registers=16))
    assert calls["subgraph"] == legacy.stats["layers"] > 0


def test_shared_cache_carries_across_register_sweep():
    """with_registers clones share PEO and derived data, so sweeps pay once."""
    graph = random_chordal_graph(40, rng=11)
    problem = AllocationProblem(graph=graph, num_registers=2)
    peo = problem.peo
    derived = problem.derived("marker", lambda: object())
    clone = problem.with_registers(8)
    assert clone.peo is peo
    assert clone.derived("marker", lambda: object()) is derived


def test_register_sweep_certifies_chordality_and_cliques_once(monkeypatch):
    """36 verified cells of one problem (6 allocators x 6 R) share one MCS,
    one PEO check and one clique enumeration through the derived cache."""
    from repro.experiments.figures import CHORDAL_ALLOCATORS, CHORDAL_REGISTER_COUNTS
    from repro.experiments.runner import run_cells
    from repro.graphs import chordal, cliques

    problem = build_corpus("eembc", seed=2013, scale=0.2).problems[0]
    mcs = count_calls(monkeypatch, chordal, "maximum_cardinality_search")
    peo_checks = count_calls(monkeypatch, chordal, "is_perfect_elimination_order")
    enumerations = count_calls(monkeypatch, cliques, "maximal_cliques_chordal")
    cells = [(r, name) for r in CHORDAL_REGISTER_COUNTS for name in CHORDAL_ALLOCATORS]
    assert len(cells) == 36
    records = run_cells(problem, cells, verify=True)
    assert len(records) == 36
    assert (mcs["n"], peo_checks["n"], enumerations["n"]) == (1, 1, 1)


def test_pipeline_runs_one_mcs_and_never_materialises_sets(monkeypatch):
    """Acceptance: a dense NL pipeline run computes ``problem.peo`` once and
    assigns and verifies by restricting it — no second MCS, no subgraph copy,
    no adjacency sets built from the bitmask rows."""
    from repro.graphs import chordal
    from repro.pipeline import Pipeline
    from repro.workloads.programs import GeneratorProfile, generate_function

    profile = GeneratorProfile(statements=240, accumulators=20, loop_depth=4)
    function = generate_function("count240", profile, rng=random.Random(240))
    mcs = count_calls(monkeypatch, chordal, "maximum_cardinality_search")
    calls = _count_graph_work(monkeypatch)

    context = Pipeline.from_spec("NL", target="st231", registers=8).run(function)
    assert context.problem.max_pressure > 8  # real spilling work
    assert context.stage_stats["assign"]["assigned"] is True
    assert context.stage_stats["verify"]["assignment_checked"] is True
    assert mcs["n"] == 1
    assert calls == {"subgraph": 0, "sets": 0}


def _count_graph_work(monkeypatch):
    """Count ``Graph.subgraph`` copies and adjacency sets built from rows."""
    calls = {"subgraph": 0, "sets": 0}
    for method, key in (("subgraph", "subgraph"), ("_neighbor_set", "sets")):
        original = getattr(Graph, method)

        def counting(self, arg, _original=original, _key=key):
            calls[_key] += 1
            return _original(self, arg)

        monkeypatch.setattr(Graph, method, counting)
    return calls


def test_nl_pressure_instance_work_counts_at_r16(monkeypatch, seed_path):
    """The layered fast path's acceptance, in counts rather than wall clock,
    on the R=16, |V|=1000 pressure instance of
    ``benchmarks/bench_scaling.py::test_nl_shared_peo_speedup_at_r16``: the
    shared-PEO path runs one MCS and R Frank searches, copies no subgraph and
    builds no adjacency set; the seed kernel copies one subgraph and runs one
    MCS per round; both reach the same spill cost."""
    from repro.graphs import chordal, stable_set

    graph, _ = random_interval_graph(1000, rng=1000, span=1000, max_length=100)
    mcs = count_calls(monkeypatch, chordal, "maximum_cardinality_search")
    frank = count_calls(monkeypatch, stable_set, "maximum_weighted_stable_set")
    calls = _count_graph_work(monkeypatch)
    problem = AllocationProblem(graph=graph, num_registers=16)
    fast = LayeredOptimalAllocator().allocate(problem)
    assert problem.max_pressure > 16
    assert fast.stats["layers"] == 16
    assert (mcs["n"], frank["n"]) == (1, 16)
    assert calls == {"subgraph": 0, "sets": 0}

    seed_problem = AllocationProblem(graph=graph.copy(), num_registers=16)
    seed_problem.peo  # the seed kernel never reads it: leave it out of the counts
    mcs["n"] = 0
    legacy = seed_path(LayeredOptimalAllocator(), seed_problem)
    assert legacy.stats["layers"] == 16
    assert mcs["n"] == calls["subgraph"] == 16
    assert fast.spill_cost == pytest.approx(legacy.spill_cost)
