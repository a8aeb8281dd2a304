"""The shared-PEO layered fast path must be behaviour-preserving.

The refactored NL/BL/FPL/BFPL allocators compute one perfect elimination
order per problem and run Frank's algorithm over candidate masks; the seed
implementation (kept as ``shared_peo=False``) materialized a fresh subgraph
and recomputed a maximum-cardinality search every round.  These tests pin
down that the two paths agree layer by layer, that every layer is a true
maximum weighted stable set (brute-force cross-check), and that the fast
path never calls ``Graph.subgraph`` in its hot loop.

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

from repro.alloc.base import get_allocator
from repro.alloc.biased import BiasedLayeredAllocator
from repro.alloc.fixed_point import BiasedFixedPointLayeredAllocator, FixedPointLayeredAllocator
from repro.alloc.layered import LayeredOptimalAllocator, optimal_layer
from repro.alloc.problem import AllocationProblem
from repro.graphs.generators import random_chordal_graph, random_interval_graph
from repro.graphs.graph import Graph
from repro.graphs.stable_set import brute_force_max_weight_stable_set, is_stable_set
from repro.workloads.corpus import build_corpus
from tests.conftest import count_calls

N_PROPERTY_GRAPHS = 200
MAX_VERTICES = 18
BRUTE_FORCE_MAX_VERTICES = 12


def _layers(graph, num_registers, peo):
    """Replicate NL's round loop, recording each layer."""
    candidates = set(graph.vertices())
    layers = []
    rounds = 0
    while candidates and rounds < num_registers:
        layer = optimal_layer(graph, candidates, peo=peo)
        if not layer:
            break
        layers.append(list(layer))
        candidates.difference_update(layer)
        rounds += 1
    return layers


@pytest.mark.parametrize("case", range(N_PROPERTY_GRAPHS))
def test_old_and_new_paths_agree_layer_by_layer(case):
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

    old_layers = _layers(graph, num_registers, peo=None)
    new_layers = _layers(graph, num_registers, peo=problem.peo)

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
    old_result = LayeredOptimalAllocator(shared_peo=False).allocate(problem)
    new_result = LayeredOptimalAllocator().allocate(problem)
    assert new_result.spill_cost == pytest.approx(old_result.spill_cost)


@pytest.mark.parametrize(
    "allocator_factory",
    [
        LayeredOptimalAllocator,
        BiasedLayeredAllocator,
        FixedPointLayeredAllocator,
        BiasedFixedPointLayeredAllocator,
    ],
    ids=["NL", "BL", "FPL", "BFPL"],
)
def test_all_layered_allocators_match_seed_path(allocator_factory):
    """Every layered variant agrees with its seed path on random instances."""
    for seed in range(40):
        rng = random.Random(seed * 7919)
        graph = random_chordal_graph(rng.randint(2, 24), rng=seed * 31 + 5)
        for num_registers in (1, 2, 3):
            problem = AllocationProblem(graph=graph, num_registers=num_registers)
            old = allocator_factory(shared_peo=False).allocate(problem)
            new = allocator_factory().allocate(
                AllocationProblem(graph=graph, num_registers=num_registers)
            )
            assert new.spill_cost == pytest.approx(old.spill_cost), (seed, num_registers)


def test_nl_identical_spill_costs_on_existing_corpora():
    """Acceptance: NL matches the seed path on the standard corpora."""
    for suite in ("spec2000int", "eembc", "lao_kernels"):
        corpus = build_corpus(suite, seed=2013, scale=0.2)
        for problem in corpus:
            for num_registers in (1, 2, 4, 8, 16):
                instance = problem.with_registers(num_registers)
                old = LayeredOptimalAllocator(shared_peo=False).allocate(instance)
                new = LayeredOptimalAllocator().allocate(instance)
                assert new.spill_cost == pytest.approx(old.spill_cost), (
                    suite,
                    problem.name,
                    num_registers,
                )


def test_nl_hot_loop_makes_zero_subgraph_calls(monkeypatch):
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

    # The reference path, by contrast, copies once per round.
    legacy = LayeredOptimalAllocator(shared_peo=False).allocate(
        AllocationProblem(graph=graph, num_registers=16)
    )
    assert calls["subgraph"] == legacy.stats["layers"] > 0


def test_registry_default_uses_shared_peo():
    allocator = get_allocator("NL")
    assert isinstance(allocator, LayeredOptimalAllocator)
    assert allocator.shared_peo


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
    from repro.graphs.dense import DenseGraph
    from repro.pipeline import Pipeline
    from repro.workloads.programs import GeneratorProfile, generate_function

    profile = GeneratorProfile(statements=240, accumulators=20, loop_depth=4)
    function = generate_function("count240", profile, rng=random.Random(240))
    mcs = count_calls(monkeypatch, chordal, "maximum_cardinality_search")
    calls = {"subgraph": 0, "materialize": 0}
    for cls in (Graph, DenseGraph):
        original_subgraph = cls.subgraph

        def counting_subgraph(self, keep, _original=original_subgraph):
            calls["subgraph"] += 1
            return _original(self, keep)

        monkeypatch.setattr(cls, "subgraph", counting_subgraph)
    original_materialize = DenseGraph._materialize

    def counting_materialize(self):
        calls["materialize"] += 1
        return original_materialize(self)

    monkeypatch.setattr(DenseGraph, "_materialize", counting_materialize)

    context = Pipeline.from_spec("NL", target="st231", registers=8).run(function)
    assert isinstance(context.graph, DenseGraph)
    assert context.problem.max_pressure > 8  # real spilling work
    assert context.stage_stats["assign"]["assigned"] is True
    assert context.stage_stats["verify"]["assignment_checked"] is True
    assert mcs["n"] == 1
    assert calls == {"subgraph": 0, "materialize": 0}
