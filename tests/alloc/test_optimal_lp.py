"""The LP-first exact solver behind "Optimal": reduction, certificate, branching.

:func:`repro.alloc.optimal_ilp.solve_ilp` drops the vertices of no binding
clique, accepts the LP relaxation's answer only with a certificate of
optimality, and branches otherwise.  These tests hold it to the dense
all-vertex MILP it replaced (kept below as :func:`reference_solve_ilp`), to
brute force, and to sha256 pins of the figures' Optimal costs taken with
that MILP.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.alloc.optimal import OptimalAllocator
from repro.alloc.optimal_ilp import scipy_available, solve_ilp
from repro.alloc.problem import AllocationProblem
from repro.errors import AllocationError, SolverUnavailableError
from repro.experiments.figures import FIGURE_SPECS
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.graphs.cliques import maximal_cliques
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_chordal_graph,
    random_general_graph,
)
from repro.graphs.graph import Graph
from repro.store import open_store
from repro.telemetry.tracer import Tracer, use_tracer
from repro.workloads.corpus import build_corpus

needs_scipy = pytest.mark.skipif(not scipy_available(), reason="the ILP backend needs scipy")

REGISTER_COUNTS = (0, 1, 2, 3, 5, 8)

#: sha256 over "instance<TAB>R<TAB>repr(spill_cost)" lines of every Optimal
#: cell of the figure's corpus (seed 2013, scale 1), taken with the dense
#: all-vertex MILP that preceded the LP-first solver.
OPTIMAL_COST_PINS = {
    "figure8": "e03b1b15cc978b9f5a56e7f0b27835483a0a43bd039ce2b3e5d3c09480d7c2d9",
    "figure9": "a498bcaef90f2086de11ded62ff9ba1317fee71bbdfe24625334292c561b4ff6",
    "figure10": "763e8f44b2fc14dbc098778c2e39525698207458c2d7c7af2aa144646c7bdd3b",
    "figure14": "b89ff21d24721b7f394cecfa57a3bc31e0c56ebffb9192d81281c84bd967624e",
}


def _milp_backend():
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    return np, optimize


def reference_solve_ilp(graph, num_registers, cliques=None):
    """The dense all-vertex MILP "Optimal" solved before the LP-first solver."""
    backend = _milp_backend()
    if backend is None:
        raise SolverUnavailableError("scipy is required for the ILP optimal allocator")
    np, optimize = backend
    vertices = graph.vertices()
    if not vertices:
        return set(), 0.0
    if num_registers <= 0:
        return set(), 0.0
    if cliques is None:
        from repro.graphs.cliques import maximal_cliques

        cliques = maximal_cliques(graph)

    index = {v: i for i, v in enumerate(vertices)}
    weights = np.array([graph.weight(v) for v in vertices], dtype=float)

    # milp minimizes; we maximize allocated weight.
    objective = -weights

    constraints = []
    binding = [c for c in cliques if len(c) > num_registers]
    if binding:
        matrix = np.zeros((len(binding), len(vertices)))
        for row, clique in enumerate(binding):
            for vertex in clique:
                matrix[row, index[vertex]] = 1.0
        constraints.append(
            optimize.LinearConstraint(matrix, lb=-np.inf, ub=float(num_registers))
        )

    result = optimize.milp(
        c=objective,
        constraints=constraints,
        integrality=np.ones(len(vertices)),
        bounds=optimize.Bounds(lb=0.0, ub=1.0),
    )
    if not result.success:
        raise AllocationError(f"MILP solver failed: {result.message}")
    chosen = {vertices[i] for i, value in enumerate(result.x) if value > 0.5}
    return chosen, float(sum(graph.weight(v) for v in chosen))


def brute_force_weight(graph, registers):
    """The heaviest vertex set with at most ``registers`` in every maximal clique."""
    vertices = graph.vertices()
    cliques = maximal_cliques(graph)
    best = 0.0
    for size in range(len(vertices) + 1):
        for keep in itertools.combinations(vertices, size):
            kept = set(keep)
            if all(len(kept & c) <= registers for c in cliques):
                best = max(best, graph.total_weight(keep))
    return best


def traced_solve(graph, registers):
    """``solve_ilp`` under a fresh tracer: ``(allocated, weight, counters)``."""
    tracer = Tracer()
    with use_tracer(tracer):
        allocated, weight = solve_ilp(graph, registers)
    counters = tracer.snapshot().counters
    return allocated, weight, {k: v for k, v in counters.items() if k.startswith("alloc.optimal.")}


def _instances():
    for seed in range(12):
        yield f"chordal-{seed}", random_chordal_graph(4 + seed, rng=seed)
        yield f"general-{seed}", random_general_graph(4 + seed, rng=seed, edge_prob=0.35)
    for n in (3, 4, 5, 6, 7, 9):
        yield f"cycle-{n}", cycle_graph(n)


INSTANCES = dict(_instances())


def _feasible(graph, allocated, registers):
    return all(len(allocated & c) <= registers for c in maximal_cliques(graph))


@needs_scipy
@pytest.mark.parametrize("registers", REGISTER_COUNTS)
@pytest.mark.parametrize("family", ["chordal", "general", "cycle"])
def test_matches_the_dense_milp_and_brute_force(family, registers):
    for name, graph in INSTANCES.items():
        if not name.startswith(family):
            continue
        allocated, weight = solve_ilp(graph, registers)
        _, reference = reference_solve_ilp(graph, registers)
        assert weight == pytest.approx(reference, rel=1e-12, abs=1e-12), name
        assert weight == pytest.approx(graph.total_weight(allocated), rel=1e-12), name
        assert allocated <= set(graph.vertices()), name
        assert _feasible(graph, allocated, registers), name
        if len(graph) <= 10:
            assert weight == pytest.approx(brute_force_weight(graph, registers), rel=1e-12, abs=1e-12), name


@needs_scipy
def test_c5_lp_is_fractional_so_the_solver_branches():
    # x = 1/2 on every vertex meets each edge constraint at R=1: LP value
    # 2.5, but no three vertices of C5 are pairwise non-adjacent.
    graph = cycle_graph(5)
    allocated, weight, counters = traced_solve(graph, 1)
    assert counters == {"alloc.optimal.branched": 1}
    assert weight == brute_force_weight(graph, 1) == 2.0
    assert len(allocated) == 2 and _feasible(graph, allocated, 1)


@needs_scipy
def test_chordal_graph_with_fractional_lp_branches_to_the_optimum():
    # Found by a seeded search over random chordal graphs: at R=2 the LP puts
    # 1/2 on v0, v1 and v2 (bound 1594.7175) above the integer optimum.
    graph = random_chordal_graph(12, rng=2151)
    allocated, weight, counters = traced_solve(graph, 2)
    assert counters == {"alloc.optimal.branched": 1}
    assert weight == pytest.approx(1565.739, rel=1e-12)
    assert weight == pytest.approx(brute_force_weight(graph, 2), rel=1e-12)
    assert weight == pytest.approx(reference_solve_ilp(graph, 2)[1], rel=1e-12)
    assert _feasible(graph, allocated, 2)


@needs_scipy
def test_integral_lp_is_accepted_without_branching():
    graph = complete_graph(6, weights={f"v{i}": float(i + 1) for i in range(6)})
    allocated, weight, counters = traced_solve(graph, 2)
    assert counters == {"alloc.optimal.lp": 1}
    assert allocated == {"v4", "v5"} and weight == 11.0


@needs_scipy
def test_no_binding_clique_allocates_everything_without_a_solver(monkeypatch):
    import scipy.optimize

    def no_solver(*args, **kwargs):
        raise AssertionError("no binding clique, so no solver call")

    monkeypatch.setattr(scipy.optimize, "milp", no_solver)
    graph = Graph()
    for vertex, weight in (("a", 3.0), ("b", 0.0), ("c", 2.0), ("d", 0.0)):
        graph.add_vertex(vertex, weight)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    allocated, weight, counters = traced_solve(graph, 2)
    assert allocated == {"a", "b", "c", "d"}
    assert weight == 5.0
    assert counters == {"alloc.optimal.unconstrained": 1}


@needs_scipy
def test_vertices_outside_binding_cliques_are_kept():
    # K4 {a,b,c,d} binds at R=2; the pendant path d-e-f never does, so e and
    # f are allocated whatever their weight while the solver decides K4.
    graph = complete_graph(4, weights={"v0": 1.0, "v1": 2.0, "v2": 3.0, "v3": 4.0})
    for vertex, weight in (("e", 0.0), ("f", 7.0)):
        graph.add_vertex(vertex, weight)
    graph.add_edge("v3", "e")
    graph.add_edge("e", "f")
    allocated, weight, counters = traced_solve(graph, 2)
    assert allocated == {"v2", "v3", "e", "f"}
    assert weight == 14.0
    assert counters == {"alloc.optimal.lp": 1}


@pytest.fixture(scope="module")
def figure_optimal_cells():
    """Every Optimal cell of the pinned figures' corpora, swept under a tracer."""
    cells = {}
    for figure in OPTIMAL_COST_PINS:
        spec = FIGURE_SPECS[figure]
        corpus = build_corpus(spec.suite, target=spec.target, seed=2013)
        config = ExperimentConfig(["Optimal"], list(spec.register_counts), verify=False)
        tracer = Tracer()
        with use_tracer(tracer):
            records = run_experiment(corpus, config)
        counters = tracer.snapshot().counters
        cells[figure] = (records, {k: v for k, v in counters.items() if k.startswith("alloc.optimal.")})
    return cells


@needs_scipy
@pytest.mark.parametrize("figure", sorted(OPTIMAL_COST_PINS))
def test_figure_optimal_costs_are_pinned(figure, figure_optimal_cells):
    records, _ = figure_optimal_cells[figure]
    text = "".join(f"{r.instance}\t{r.num_registers}\t{r.spill_cost!r}\n" for r in records)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == OPTIMAL_COST_PINS[figure]


@needs_scipy
def test_figure9_sweep_counts_each_cells_outcome(figure_optimal_cells):
    records, counters = figure_optimal_cells["figure9"]
    assert len(records) == 168
    # 32 cells have no binding clique; the LP decides the other 136, none branches.
    assert counters == {"alloc.optimal.unconstrained": 32, "alloc.optimal.lp": 136}


#: (name, registers) cells the scipy-hidden run solves; all at most 10 vertices.
HIDDEN_CELLS = [(f"chordal-{seed}", r) for seed in range(7) for r in (1, 2, 3)] + [
    (f"cycle-{n}", r) for n in (5, 7) for r in (1, 2)
]

_HIDDEN_PROBE = """
import json, sys
sys.modules["scipy"] = None
sys.modules["numpy"] = None
from repro.alloc.optimal import OptimalAllocator
from repro.alloc.problem import AllocationProblem
from repro.graphs.generators import cycle_graph, random_chordal_graph

def graph_of(name):
    kind, number = name.split("-")
    return random_chordal_graph(4 + int(number), rng=int(number)) if kind == "chordal" else cycle_graph(int(number))

results = []
for name, registers in json.loads(sys.argv[1]):
    result = OptimalAllocator().allocate(AllocationProblem(graph=graph_of(name), num_registers=registers))
    results.append([result.stats["backend"], result.spill_cost])
print(json.dumps({"results": results, "loaded": sorted({"scipy", "numpy"} & {k for k, v in sys.modules.items() if v})}))
"""


def test_optimal_without_scipy_uses_branch_and_bound_and_same_costs():
    source = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _HIDDEN_PROBE, json.dumps(HIDDEN_CELLS)],
        env=env, capture_output=True, text=True, check=True,
    )
    hidden = json.loads(out.stdout)
    assert hidden["loaded"] == []
    assert [backend for backend, _ in hidden["results"]] == ["branch-and-bound"] * len(HIDDEN_CELLS)
    expected_backend = "scipy-milp" if scipy_available() else "branch-and-bound"
    for (name, registers), (_, hidden_cost) in zip(HIDDEN_CELLS, hidden["results"]):
        graph = INSTANCES[name]
        result = OptimalAllocator().allocate(AllocationProblem(graph=graph, num_registers=registers))
        assert result.stats["backend"] == expected_backend
        assert hidden_cost == pytest.approx(result.spill_cost, rel=1e-12, abs=1e-12)
        optimum = graph.total_weight() - brute_force_weight(graph, registers)
        assert hidden_cost == pytest.approx(optimum, rel=1e-9, abs=1e-9)


@needs_scipy
def test_store_with_version_1_optimal_cells_recomputes_only_those(tmp_path, monkeypatch):
    problems = [
        AllocationProblem(graph=random_chordal_graph(14 + seed, rng=seed), num_registers=4, name=f"p{seed}")
        for seed in range(4)
    ]
    config = ExperimentConfig(allocators=["NL", "GC", "Optimal"], register_counts=[2, 4], verify=False)
    with open_store(tmp_path / "s.sqlite") as store:
        # Optimal's cells keyed as a store filled before version 2 keys them.
        with monkeypatch.context() as patch:
            patch.setattr(OptimalAllocator, "version", "1")
            before = run_experiment(problems, config, store=store)
        after = run_experiment(problems, config, store=store)
        again = run_experiment(problems, config, store=store)
        manifests = store.manifests()
    optimal_cells = len(problems) * 2
    assert [m.cells_computed for m in manifests] == [3 * optimal_cells, optimal_cells, 0]
    assert manifests[1].cache_by_allocator == {
        "NL": {"hit": optimal_cells, "miss": 0},
        "GC": {"hit": optimal_cells, "miss": 0},
        "Optimal": {"hit": 0, "miss": optimal_cells},
    }
    assert manifests[2].hit_rate == 1.0

    def costs(records):
        return [(r.instance, r.allocator, r.num_registers, r.spill_cost) for r in records]

    assert costs(after) == costs(before) == costs(again)
