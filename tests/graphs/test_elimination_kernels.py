"""The dense elimination-order kernels against the set-based reference.

* the bucket-mask MCS returns the reference visit order, ``start`` included;
* the suffix-mask PEO check agrees with the reference on MCS orders and on
  shuffled orders;
* the restriction lemma: a PEO of G restricted to S is a PEO of G[S], so the
  restricted clique number and tree-scan answer for the induced subgraph,
  on ``DenseGraph`` and plain ``Graph`` alike.

600 generated graphs in all, over seven families.
"""

import random

import pytest

from repro.graphs.chordal import is_perfect_elimination_order, maximum_cardinality_search
from repro.graphs.coloring import (
    chromatic_number_chordal,
    is_valid_coloring,
    restricted_clique_number,
    restricted_coloring,
)
from repro.graphs.dense import DenseGraph, dense_is_peo, dense_mcs
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_chordal_graph,
    random_general_graph,
    random_interval_graph,
)
from repro.graphs.graph import Graph


def _shuffled_insertion(graph: Graph, rng: random.Random) -> Graph:
    """The same graph with vertices inserted in a random order, so ties in
    the searches fall on insertion indices that differ from name order."""
    vertices = graph.vertices()
    rng.shuffle(vertices)
    out = Graph()
    for v in vertices:
        out.add_vertex(v, graph.weight(v))
    for u, v in graph.edges():
        out.add_edge(u, v)
    return out


def _family(kind: str, seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(1, 36)
    if kind == "chordal":
        graph = random_chordal_graph(n, rng=seed, extra_edge_prob=rng.random())
    elif kind == "interval":
        graph, _ = random_interval_graph(n, rng=seed, span=2 * n, max_length=rng.randint(1, n))
    elif kind == "erdos-renyi":
        graph = random_general_graph(n, rng=seed, edge_prob=rng.random())
    elif kind == "cycle":
        graph = cycle_graph(max(n, 3))
    elif kind == "complete":
        graph = complete_graph(n)
    elif kind == "path":
        graph = path_graph(n)
    else:  # empty: no vertices, or vertices and no edges
        graph = Graph()
        for i in range(seed % 5 * n // 4):
            graph.add_vertex(f"x{i}")
    return _shuffled_insertion(graph, rng) if seed % 2 else graph


FAMILIES = ("chordal", "interval", "erdos-renyi", "cycle", "complete", "path", "empty")
#: graphs per family; the chordal families also drive the restriction tests.
PER_FAMILY = {"chordal": 120, "interval": 120, "erdos-renyi": 120, "cycle": 60,
              "complete": 60, "path": 60, "empty": 60}


def _graphs(kinds=FAMILIES):
    for kind in kinds:
        for seed in range(PER_FAMILY[kind]):
            yield kind, seed, _family(kind, seed)


@pytest.mark.parametrize("kind", FAMILIES)
def test_bucket_mcs_matches_the_reference_order(kind):
    for _, seed, graph in _graphs((kind,)):
        dense = DenseGraph.from_graph(graph)
        assert dense_mcs(dense) == maximum_cardinality_search(graph), (kind, seed)
        starts = graph.vertices()
        random.Random(seed).shuffle(starts)
        for start in starts[:3]:
            assert dense_mcs(dense, start=start) == maximum_cardinality_search(graph, start=start), (
                kind,
                seed,
                start,
            )


@pytest.mark.parametrize("kind", FAMILIES)
def test_suffix_mask_peo_check_matches_the_reference(kind):
    for _, seed, graph in _graphs((kind,)):
        dense = DenseGraph.from_graph(graph)
        rng = random.Random(seed)
        orders = [list(reversed(maximum_cardinality_search(graph)))]
        for _ in range(4):
            shuffled = graph.vertices()
            rng.shuffle(shuffled)
            orders.append(shuffled)
        for order in orders:
            assert dense_is_peo(dense, order) == is_perfect_elimination_order(graph, order), (
                kind,
                seed,
                order,
            )


def test_peo_check_rejects_malformed_orders():
    graph = random_chordal_graph(12, rng=4)
    dense = DenseGraph.from_graph(graph)
    order = list(reversed(maximum_cardinality_search(graph)))
    assert dense_is_peo(dense, order)
    assert not dense_is_peo(dense, order[:-1])
    assert not dense_is_peo(dense, order[:-1] + order[:1])
    assert not dense_is_peo(dense, order[:-1] + ["stranger"])


@pytest.mark.parametrize("dense", [True, False], ids=["DenseGraph", "Graph"])
@pytest.mark.parametrize("kind", ["chordal", "interval", "complete", "path"])
def test_restriction_lemma(kind, dense):
    for _, seed, graph in _graphs((kind,)):
        peo = list(reversed(maximum_cardinality_search(graph)))
        host = DenseGraph.from_graph(graph) if dense else graph
        rng = random.Random(seed)
        for _ in range(3):
            members = [v for v in graph.vertices() if rng.random() < rng.random()]
            induced = graph.subgraph(members)
            kept = set(members)
            assert is_perfect_elimination_order(induced, [v for v in peo if v in kept])
            omega = chromatic_number_chordal(induced)
            assert restricted_clique_number(host, peo, members) == omega, (kind, seed)
            coloring = restricted_coloring(host, peo, members)
            assert set(coloring) == set(members)
            assert is_valid_coloring(induced, coloring, num_colors=omega), (kind, seed)
            assert len(set(coloring.values())) == omega


@pytest.mark.parametrize("dense", [True, False], ids=["DenseGraph", "Graph"])
def test_restriction_ignores_unknown_members_and_handles_empty_sets(dense):
    graph = random_chordal_graph(10, rng=2)
    host = DenseGraph.from_graph(graph) if dense else graph
    peo = list(reversed(maximum_cardinality_search(graph)))
    assert restricted_clique_number(host, peo, []) == 0
    assert restricted_coloring(host, peo, []) == {}
    assert restricted_clique_number(host, peo, ["ghost"]) == 0
    assert restricted_coloring(host, peo, ["v0", "ghost"]) == {"v0": 0}
