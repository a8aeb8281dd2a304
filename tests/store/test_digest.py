"""Digest stability and sensitivity: the cache-key contract."""

import random

import pytest

from repro.alloc import available_allocators, get_allocator
from repro.alloc.problem import AllocationProblem
from repro.analysis.live_ranges import LiveInterval
from repro.graphs.dense import DenseGraph
from repro.graphs.graph import Graph
from repro.graphs.io import graph_digest
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.pipeline import Pipeline
from repro.store import problem_digest
from repro.workloads import build_corpus
from repro.workloads.programs import GeneratorProfile, generate_function
from tests.conftest import build_paper_figure4_graph


def _shuffled_copy(graph: Graph, seed: int) -> Graph:
    """Rebuild ``graph`` with vertices and edges inserted in random order."""
    rng = random.Random(seed)
    vertices = graph.vertices()
    edges = graph.edges()
    rng.shuffle(vertices)
    rng.shuffle(edges)
    clone = Graph()
    for v in vertices:
        clone.add_vertex(v, graph.weight(v))
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        clone.add_edge(u, v)
    return clone


def test_graph_digest_is_insertion_order_independent():
    graph = build_paper_figure4_graph()
    digest = graph_digest(graph)
    for seed in range(5):
        assert graph_digest(_shuffled_copy(graph, seed)) == digest


def test_graph_digest_sensitive_to_weights_and_edges():
    graph = build_paper_figure4_graph()
    digest = graph_digest(graph)

    reweighted = graph.copy()
    vertex = reweighted.vertices()[0]
    reweighted.set_weight(vertex, reweighted.weight(vertex) + 1.0)
    assert graph_digest(reweighted) != digest

    pruned = graph.copy()
    u, v = pruned.edges()[0]
    pruned.remove_edge(u, v)
    assert graph_digest(pruned) != digest


def test_problem_digest_ignores_instance_name():
    graph = build_paper_figure4_graph()
    a = AllocationProblem(graph=graph, num_registers=2, name="alpha")
    b = AllocationProblem(graph=graph.copy(), num_registers=2, name="beta")
    assert problem_digest(a) == problem_digest(b)


def test_problem_digest_varies_with_registers_target_and_intervals():
    graph = build_paper_figure4_graph()
    problem = AllocationProblem(graph=graph, num_registers=2, name="p")
    base = problem_digest(problem)
    assert problem_digest(problem, registers=3) != base
    assert problem_digest(problem.with_registers(3)) == problem_digest(problem, registers=3)
    assert problem_digest(problem, target="st231") != base

    with_intervals = AllocationProblem(
        graph=graph.copy(),
        num_registers=2,
        intervals=[LiveInterval(register="a", start=0, end=4)],
        name="p",
    )
    assert problem_digest(with_intervals) != base


def test_problem_digest_cached_across_register_clones():
    """The expensive graph hash is computed once and shared by R-clones."""
    graph = build_paper_figure4_graph()
    problem = AllocationProblem(graph=graph, num_registers=2, name="p")
    problem_digest(problem)
    assert "store:content_digest" in problem._derived_cache
    clone = problem.with_registers(7)
    assert clone._derived_cache is problem._derived_cache


def test_every_registered_allocator_has_a_version_tag():
    for name in available_allocators():
        allocator = get_allocator(name)
        assert isinstance(allocator.version, str) and allocator.version


# ---------------------------------------------------------------------- #
# value pins
# ---------------------------------------------------------------------- #
# Literal digests, computed by hashing ``json.dumps`` of the materialised
# ``canonical_graph_payload``.  Every store cell, sweep key and service job
# key is derived from these bytes, so any change to ``graph_digest`` must
# leave every value below exactly as it is.


def awkward_names_graph() -> Graph:
    """Names that exercise JSON string escaping and string-order ranking."""
    names = [
        'say "hi"', "back\\slash", "caf\u00e9", "\u2203x", "bell\x07", "tab\tnl\n",
        "v1", "v10", "10", "2", "-3", "1e5", "",
    ]
    graph = Graph()
    for i, name in enumerate(names):
        graph.add_vertex(name, float(i + 1))
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            if (len(u) + len(v)) % 3 != 1:
                graph.add_edge(u, v)
    return graph


def awkward_weights_graph() -> Graph:
    """Weights that exercise json's float encoding."""
    weights = {"zero": 0, "tiny": 1e-300, "huge": 1e300, "sum": 0.1 + 0.2, "inf": float("inf"), "int": 7}
    graph = Graph()
    for name, weight in weights.items():
        graph.add_vertex(name, weight)
    for u, v in [("zero", "tiny"), ("tiny", "huge"), ("huge", "sum"), ("sum", "inf"), ("inf", "zero"), ("int", "huge")]:
        graph.add_edge(u, v)
    return graph


def isolated_vertices_graph() -> Graph:
    graph = Graph.from_edges([("b", "a")], weights={"a": 2.0, "b": 3.0}, isolated=["z", "c", "m"])
    graph.set_weight("m", 0.5)
    return graph


def shared_string_form_graph() -> Graph:
    """Distinct vertices with one string form: ``1`` and ``"1"``, ``0`` and ``"0"``."""
    graph = Graph()
    for v, weight in [(1, 4.0), ("1", 2.0), (0, 1.0), ("0", 3.0), ("x", 5.0)]:
        graph.add_vertex(v, weight)
    for u, v in [(1, "1"), (1, "x"), ("1", "x"), (0, "1"), ("0", 1), ("0", "x")]:
        graph.add_edge(u, v)
    return graph


GRAPH_PINS = {
    "figure4": (build_paper_figure4_graph, "44874665a9f96533406e89bf385697184936f8039f67f5b37532c571d1d9e2a5"),
    "awkward-names": (awkward_names_graph, "1e3589ceccd288af2f83fe0a9bf1cae50dec2e2e8eac117c27435b7f52346ac0"),
    "awkward-weights": (awkward_weights_graph, "01f60f892b35840bb2cf8052edbeeba27f8344aa95771f06d5ca4f278dbb885f"),
    "isolated-vertices": (isolated_vertices_graph, "9a0f339949e7106ea85ed9967f2d0a5e560f2927d14e52cc554a174d601747ba"),
    "empty": (Graph, "8fb22e43390e221e5c8afe7bf628286b04b869c2543068f3ae2e3b25b87af13c"),
    "shared-string-form": (shared_string_form_graph, "18ff2a075185ef23c4f346bfa0b14045560b2a09968fd6647e216eb2fb7371da"),
}

#: graph digest of the first instance of each shipped corpus (seed 2013).
CORPUS_PINS = {
    "eembc": "be5ef86aa88a71d0b16475da56ca68d532fcf7d1c5cba5d0c3736b04f8a7f534",
    "spec2000int": "6d2120484aeb6edfe334fd5fb134eb630595a8fda050ebe8a695c60db488e3ea",
    "lao_kernels": "94c5453117c5b37fee7c30979e06858e47c2ecb97877737aba3eb6f8b61e5e21",
    "specjvm98": "d367ab23ee2a99cef7f6d1b443b5e07df3ec4acf77f1a4a6edacd3e4306b6473",
}

#: problem digest of a generated 240-statement function through the front end.
FRONT_END_PIN = "09957ed6b14cb7937ea06adc191e6f2ae2ea135a28a1ecf07eeee0d8be53fc56"


@pytest.mark.parametrize("dense", [False, True], ids=["Graph", "DenseGraph"])
@pytest.mark.parametrize("name", sorted(GRAPH_PINS))
def test_graph_digest_pinned_by_value(name, dense):
    build, expected = GRAPH_PINS[name]
    graph = build()
    if dense:
        graph = graph.copy()
    assert graph_digest(graph) == expected


@pytest.mark.parametrize("suite", sorted(CORPUS_PINS))
def test_corpus_first_instance_digest_pinned_by_value(suite):
    problem = build_corpus(suite, seed=2013, scale=0.01).problems[0]  # one function per program
    assert graph_digest(problem.graph) == CORPUS_PINS[suite]


def test_front_end_problem_digest_pinned_by_value():
    function = generate_function("pinned240", GeneratorProfile(statements=240), rng=random.Random(240))
    front = Pipeline.from_spec("NL", target="st231", registers=8, stages="liveness,interference,extract")
    context = front.run(parse_function(print_function(function)))
    assert isinstance(context.problem.graph, DenseGraph)
    assert problem_digest(context.problem, target="st231", registers=8) == FRONT_END_PIN
