"""The streamed graph digest against the materialised canonical payload.

``graph_digest(g)`` must equal the SHA-256 of ``json.dumps`` of
``canonical_graph_payload(g)`` byte for byte, on graphs built edge by edge,
on their ``from_rows`` copies, on graphs whose rows were then mutated in
place and on every shipped corpus.  The random graphs draw names that need JSON escaping or rank
differently as strings than as insertion order, weights at json's float
encoding edge cases, isolated vertices, and vertices that share a string
form.
"""

import random

import pytest

from repro.graphs.graph import Graph
from repro.graphs.io import graph_digest
from repro.workloads import SUITES, build_corpus
from tests.graphs.set_reference import reference_digest

AWKWARD_NAMES = [
    'say "hi"', "back\\slash", "café", "∃x", "\U0001f600", "bell\x07", "nul\x00",
    "tab\tnl\n", "\ud800", "v1", "v10", "v2", "10", "9", "-1", "1e5", "", " ", "/", "a,b", "[x]",
]
AWKWARD_WEIGHTS = [0.0, 5e-324, 1e-300, 1e300, 0.1 + 0.2, float("inf"), 1.0, 7, 1 / 3]
ALPHABET = "ab01._\"\\é∃\x01"


def _name(rng: random.Random, index: int):
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(AWKWARD_NAMES) + str(index)
    if roll < 0.5:
        return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 4))) + f"#{index}"
    if roll < 0.6:
        return index  # a non-string vertex: ranked by its string form
    return f"v{index}"


def random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    vertices = [_name(rng, i) for i in range(n)]
    if n and seed % 10 == 0:  # an int vertex and a string vertex with one string form
        k = rng.randrange(n)
        vertices[k] = k
        vertices.append(str(k))
    rng.shuffle(vertices)
    graph = Graph()
    for v in vertices:
        weight = rng.choice(AWKWARD_WEIGHTS) if rng.random() < 0.3 else rng.uniform(0, 100)
        graph.add_vertex(v, weight)
    density = rng.random()
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if u != v and rng.random() < density:
                graph.add_edge(*((u, v) if rng.random() < 0.5 else (v, u)))
    return graph


def _mutated(graph: Graph, rng: random.Random) -> Graph:
    """A copy of ``graph`` after structural mutations edited its rows."""
    copy = graph.copy()
    copy.add_vertex(("fresh", rng.randrange(1000)), rng.uniform(0, 5))
    edges = copy.edges()
    if edges:
        copy.remove_edge(*rng.choice(edges))
    if len(copy) > 2:
        copy.remove_vertex(rng.choice(copy.vertices()))
    return copy


SEEDS = range(300)


def test_streamed_digest_matches_the_payload_on_random_graphs():
    for seed in SEEDS:
        graph = random_graph(seed)
        assert graph_digest(graph) == reference_digest(graph), seed


def test_streamed_digest_matches_the_payload_on_dense_twins():
    for seed in SEEDS:
        graph = random_graph(seed)
        copy = graph.copy()
        assert graph_digest(copy) == reference_digest(graph) == reference_digest(copy), seed


def test_streamed_digest_matches_the_payload_on_mutated_graphs():
    for seed in SEEDS:
        mutated = _mutated(random_graph(seed), random.Random(seed))
        assert graph_digest(mutated) == reference_digest(mutated), seed


def test_random_graphs_cover_the_awkward_cases():
    """The generator really draws colliding string forms, inf weights and isolated vertices."""
    graphs = [random_graph(seed) for seed in SEEDS]
    names = [[str(v) for v in g.vertices()] for g in graphs]
    assert sum(len(set(ns)) < len(ns) for ns in names) >= 10
    assert any(w == float("inf") for g in graphs for w in g.weights().values())
    assert any(g.degree(v) == 0 for g in graphs for v in g.vertices() if len(g) > 1)
    assert any(len(g) == 0 for g in graphs)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_streamed_digest_matches_the_payload_on_shipped_corpora(suite):
    for problem in build_corpus(suite, seed=2013, scale=0.1):
        assert graph_digest(problem.graph) == reference_digest(problem.graph), problem.name
