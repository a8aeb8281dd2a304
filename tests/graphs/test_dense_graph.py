"""Graph: bitmask rows, the Graph API on them, and the row kernels against
the set-based references (``tests/graphs/set_reference.py``).

Every graph stores its adjacency as rows; the "dispatch identity" tests
below check that each row kernel returns exactly what the adjacency-set
formulation it replaced returns, and the mutation tests that rows edited in
place answer every kernel like a fresh :meth:`Graph.from_rows` build.
"""

import random

import pytest

from repro.errors import GraphError, NotChordalError
from repro.graphs.chordal import (
    is_chordal,
    is_perfect_elimination_order,
    maximum_cardinality_search,
    perfect_elimination_order,
)
from repro.graphs.cliques import maximal_cliques, maximal_cliques_chordal
from repro.graphs.coloring import restricted_clique_number
from repro.graphs.dense import DenseGraph
from repro.graphs.generators import random_chordal_graph, random_general_graph
from repro.graphs.graph import Graph, bit_indices
from repro.graphs.io import graph_digest
from repro.graphs.stable_set import maximum_weighted_stable_set
from tests.graphs.set_reference import (
    reference_digest,
    reference_frank,
    reference_is_peo,
    reference_maximal_cliques_chordal,
    reference_mcs,
    reference_peo,
    reference_restricted_clique_number,
    set_built,
)


def test_bit_indices_matches_naive_enumeration():
    rng = random.Random(0)
    for _ in range(50):
        width = rng.randint(1, 2000)
        mask = rng.getrandbits(width)
        naive = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
        assert bit_indices(mask) == naive
    assert bit_indices(0) == []
    assert bit_indices(1 << 1500) == [1500]


def test_dense_graph_is_the_graph_class():
    assert DenseGraph is Graph
    assert "subgraph" in DenseGraph.__dict__


# ---------------------------------------------------------------------- #
# the Graph API on rows
# ---------------------------------------------------------------------- #
def test_copy_round_trip_preserves_everything():
    g = random_chordal_graph(40, rng=3, extra_edge_prob=0.3)
    d = g.copy()
    assert d is not g
    assert len(d) == len(g)
    assert d.vertices() == g.vertices()
    assert list(d) == list(g)
    assert d.weights() == g.weights()
    assert d.num_edges() == g.num_edges()
    assert d.edges() == g.edges()
    assert d.rows() == g.rows() and d.rows() is not g.rows()
    for v in g.vertices():
        assert v in d
        assert d.degree(v) == g.degree(v)
        assert d.neighbors(v) == g.neighbors(v)
        for u in g.vertices():
            assert d.has_edge(u, v) == g.has_edge(u, v)


def test_mask_queries_answer_without_materializing_sets():
    g = random_chordal_graph(30, rng=5)
    d = g.copy()
    assert d.has_edge(*g.edges()[0])
    assert d.num_edges() == g.num_edges()
    assert [d.degree(v) for v in g] == [g.degree(v) for v in g]
    assert d.edges()  # row edge enumeration
    # none of the above is allowed to build adjacency sets
    assert not d._sets
    first = g.vertices()[0]
    d.neighbors(first)
    assert list(d._sets) == [first]  # neighbors() builds the one set it reads


def test_from_rows_validation():
    with pytest.raises(GraphError):
        Graph.from_rows(["a", "b"], [0], [1.0, 1.0])
    with pytest.raises(GraphError):
        Graph.from_rows(["a", "a"], [0, 0], [1.0, 1.0])
    with pytest.raises(GraphError):
        Graph.from_rows(["a"], [0], [-1.0])


def test_empty_dense_graph():
    d = Graph.from_rows([], [], [])
    assert len(d) == 0
    assert d.vertices() == []
    assert d.num_edges() == 0
    assert maximum_cardinality_search(d) == []
    assert maximal_cliques(d) == []
    assert maximum_weighted_stable_set(d) == []


def test_unknown_vertex_queries_raise():
    d = Graph.from_rows(["a"], [0], [1.0])
    with pytest.raises(GraphError):
        d.index_of("nope")
    with pytest.raises(GraphError):
        d.neighbors("nope")
    with pytest.raises(GraphError):
        d.degree("nope")
    assert "nope" not in d
    assert not d.has_edge("a", "nope")


def test_mask_helpers():
    g = random_chordal_graph(10, rng=1)
    vs = g.vertices()
    mask = g.mask_of([vs[0], vs[3], "unknown-ignored"])
    assert g.vertices_in(mask) == [vs[0], vs[3]]
    assert g.mask_of([]) == 0


def test_edges_follow_row_order_whatever_the_insertion_of_edges():
    g = Graph()
    for v in "dcba":
        g.add_vertex(v)
    g.add_edge("a", "b")
    g.add_edge("c", "d")
    g.add_edge("a", "d")
    assert g.edges() == [("d", "c"), ("d", "a"), ("b", "a")]


# ---------------------------------------------------------------------- #
# mutation edits the rows in place
# ---------------------------------------------------------------------- #
def test_structural_mutation_edits_rows_in_place():
    g = random_chordal_graph(12, rng=2)
    n = len(g)
    stamp = g.mutation_stamp
    g.add_edge("x1", "x2")  # two new vertices and one edge: three mutations
    assert g.mutation_stamp == stamp + 3
    assert g.vertices()[-2:] == ["x1", "x2"]
    assert g.rows()[n] == 1 << (n + 1) and g.rows()[n + 1] == 1 << n
    assert maximum_cardinality_search(g) == reference_mcs(g)
    g.remove_edge("x1", "x2")
    assert g.rows()[n] == g.rows()[n + 1] == 0
    g.remove_vertex("x1")
    assert "x1" not in g and g.index_of("x2") == n
    assert g.mutation_stamp == stamp + 5


def test_remove_vertex_shifts_the_higher_bits_down():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")])
    g.remove_vertex("b")
    assert g.vertices() == ["a", "c", "d"]
    assert g.rows() == [0b100, 0b100, 0b011]
    assert sorted(g.edges()) == [("a", "d"), ("c", "d")]


def test_mutation_keeps_cached_sets_and_drops_the_frank_setup():
    g = random_chordal_graph(15, rng=8)
    vs = g.vertices()
    cached = {v: g.neighbors(v) for v in vs}
    peo = perfect_elimination_order(g)
    maximum_weighted_stable_set(g, peo=peo)
    assert g._frank_order is not None
    u, v = vs[0], vs[-1]
    g.add_edge(u, v)
    assert g._frank_order is None
    assert v in cached[u] and u in cached[v]
    g.remove_vertex(vs[1])
    for w in g.vertices():
        assert g.neighbors(w) == set(g.vertices_in(g.rows()[g.index_of(w)]))
    assert vs[1] not in g._sets


def test_weight_update_keeps_dense_rows_valid():
    g = random_chordal_graph(12, rng=2)
    rows = list(g.rows())
    v = g.vertices()[0]
    stamp = g.mutation_stamp
    g.set_weight(v, 99.0)
    g.add_vertex(v, 123.0)  # existing vertex: weight-only update
    assert g.rows() == rows
    assert g.weight(v) == 123.0
    assert g.mutation_stamp > stamp  # caches downstream still invalidate


def test_copy_returns_mutable_plain_graph():
    d = random_chordal_graph(8, rng=4)
    c = d.copy()
    assert type(c) is Graph
    c.add_edge("zz", d.vertices()[0])
    assert "zz" in c and "zz" not in d
    assert d.rows() == random_chordal_graph(8, rng=4).rows()


def test_without_matches_reference_before_materialization():
    g = random_chordal_graph(15, rng=7)
    drop = g.vertices()[:3]
    pruned = g.without(drop)
    ref = set_built(g)
    for v in drop:
        ref.remove_vertex(v)
    assert pruned.vertices() == ref.vertices()
    assert pruned.edges() == ref.edges()
    assert not g._sets


def test_subgraph_matches_reference():
    g = random_chordal_graph(20, rng=6, extra_edge_prob=0.2)
    keep = g.vertices()[::2] + ["ghost"]
    sub = g.subgraph(reversed(keep))
    assert sub.vertices() == [v for v in g.vertices() if v in keep]
    assert sub.weights() == {v: g.weight(v) for v in sub.vertices()}
    assert {frozenset(e) for e in sub.edges()} == {
        frozenset((u, v)) for u in sub.vertices() for v in g.neighbors(u) if v in keep
    }


# Random mutation sequences: the rows edited in place must answer every
# kernel like a fresh from_rows build of an independent adjacency model, and
# like the set references.
def _mutated(seed):
    rng = random.Random(seed)
    g = random_chordal_graph(rng.randint(0, 25), rng=seed, extra_edge_prob=rng.random())
    order = g.vertices()
    adjacency = {v: set(g.neighbors(v)) for v in order}  # also fills the set cache
    weights = g.weights()
    if order and rng.random() < 0.5:
        maximum_weighted_stable_set(g, peo=perfect_elimination_order(g))  # fill the Frank cache
    fresh = 0
    for _ in range(rng.randint(1, 30)):
        op = rng.choice(("add_vertex", "add_edge", "remove_edge", "remove_vertex", "set_weight"))
        if op == "add_vertex" or len(order) < 2:
            v = f"n{fresh}" if rng.random() < 0.8 or not order else rng.choice(order)
            fresh += 1
            weight = rng.uniform(0, 50)
            g.add_vertex(v, weight)
            if v not in adjacency:
                order.append(v)
                adjacency[v] = set()
            weights[v] = weight
        elif op == "add_edge":
            u, v = rng.sample(order, 2)
            g.add_edge(u, v)
            adjacency[u].add(v)
            adjacency[v].add(u)
        elif op == "remove_edge":
            u, v = rng.sample(order, 2)
            g.remove_edge(u, v)
            adjacency[u].discard(v)
            adjacency[v].discard(u)
        elif op == "remove_vertex":
            v = rng.choice(order)
            g.remove_vertex(v)
            order.remove(v)
            for u in adjacency.pop(v):
                adjacency[u].discard(v)
            del weights[v]
        else:
            v = rng.choice(order)
            weights[v] = rng.uniform(0, 50)
            g.set_weight(v, weights[v])
        if rng.random() < 0.3 and order:
            g.neighbors(rng.choice(order))
    index = {v: i for i, v in enumerate(order)}
    rows = [sum(1 << index[u] for u in adjacency[v]) for v in order]
    return g, Graph.from_rows(order, rows, [weights[v] for v in order]), adjacency, rng


@pytest.mark.parametrize("seed", range(60))
def test_rows_under_mutation_answer_like_a_fresh_build(seed):
    g, fresh, adjacency, rng = _mutated(seed)
    assert g.vertices() == fresh.vertices()
    assert g.rows() == fresh.rows()
    assert g.weights() == fresh.weights()
    assert g.edges() == fresh.edges()
    for v in g.vertices():
        assert g.neighbors(v) == adjacency[v] == fresh.neighbors(v)
    assert graph_digest(g) == graph_digest(fresh) == reference_digest(g)
    mcs = maximum_cardinality_search(g)
    assert mcs == maximum_cardinality_search(fresh) == reference_mcs(g)
    order = list(reversed(mcs))
    assert is_perfect_elimination_order(g, order) == is_perfect_elimination_order(fresh, order)
    assert is_perfect_elimination_order(g, order) == reference_is_peo(g, order)
    candidates = [v for v in g.vertices() if rng.random() < 0.7]
    frank = maximum_weighted_stable_set(g, peo=order, candidates=candidates)
    assert frank == maximum_weighted_stable_set(fresh, peo=order, candidates=candidates)
    assert frank == reference_frank(g, peo=order, candidates=candidates)
    assert maximal_cliques_chordal(g, order) == maximal_cliques_chordal(fresh, order)
    assert maximal_cliques_chordal(g, order) == reference_maximal_cliques_chordal(g, order)
    omega = restricted_clique_number(g, order, candidates)
    assert omega == restricted_clique_number(fresh, order, candidates)
    assert omega == reference_restricted_clique_number(g, order, candidates)


# ---------------------------------------------------------------------- #
# dispatch identity: the row kernels return exactly what the set-based
# reference algorithms return
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(8))
def test_mcs_and_peo_dispatch_identical(seed):
    g = random_chordal_graph(50, rng=seed, extra_edge_prob=0.35)
    assert maximum_cardinality_search(g) == reference_mcs(g)
    start = g.vertices()[seed % len(g)]
    assert maximum_cardinality_search(g, start=start) == reference_mcs(g, start=start)
    peo = reference_peo(g)
    assert perfect_elimination_order(g) == peo
    assert is_perfect_elimination_order(g, peo)
    assert is_perfect_elimination_order(g, list(reversed(peo))) == \
        reference_is_peo(g, list(reversed(peo)))
    assert is_chordal(g) is True


@pytest.mark.parametrize("seed", range(8))
def test_clique_enumeration_dispatch_identical(seed):
    g = random_chordal_graph(50, rng=seed, extra_edge_prob=0.35)
    assert maximal_cliques(g) == reference_maximal_cliques_chordal(g)
    ng = random_general_graph(30, edge_prob=0.25, rng=seed)
    order = list(reversed(reference_mcs(ng)))
    assert maximal_cliques_chordal(ng, order) == reference_maximal_cliques_chordal(ng, order)
    assert is_chordal(ng) == reference_is_peo(ng, order)


@pytest.mark.parametrize("seed", range(8))
def test_franks_algorithm_dispatch_identical(seed):
    rng = random.Random(seed)
    g = random_chordal_graph(50, rng=seed, extra_edge_prob=0.35)
    peo = perfect_elimination_order(g)
    assert maximum_weighted_stable_set(g) == reference_frank(g)
    cands = set(rng.sample(g.vertices(), 25))
    assert maximum_weighted_stable_set(g, peo=peo, candidates=cands) == \
        reference_frank(g, peo=peo, candidates=cands)
    # without a PEO, the candidates' own PEO (of their induced subgraph)
    assert maximum_weighted_stable_set(g, candidates=cands) == reference_frank(g, candidates=cands)
    # integer (tie-heavy) and zero weights exercise the tie-breaking and the
    # never-pick-zero-weight rule
    weights = {v: float(rng.randint(0, 3)) for v in g.vertices()}
    assert maximum_weighted_stable_set(g, weights=weights, peo=peo) == \
        reference_frank(g, weights=weights, peo=peo)
    assert maximum_weighted_stable_set(g, weights=weights, peo=peo, candidates=cands) == \
        reference_frank(g, weights=weights, peo=peo, candidates=cands)


def test_franks_algorithm_dense_error_paths_match():
    g = random_chordal_graph(10, rng=9)
    peo = perfect_elimination_order(g)
    bad_weights = {v: 1.0 for v in g.vertices()[:-1]}
    for frank in (maximum_weighted_stable_set, reference_frank):
        with pytest.raises(GraphError):
            frank(g, weights=bad_weights, peo=peo)
        with pytest.raises(GraphError):
            frank(g, peo=peo[:-1])


def test_non_chordal_dense_graph_raises_like_reference():
    cycle = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    with pytest.raises(NotChordalError):
        perfect_elimination_order(cycle)
    with pytest.raises(NotChordalError):
        reference_peo(cycle)
    assert not is_chordal(cycle)
    cycle.add_vertex("e")
    with pytest.raises(NotChordalError):  # Frank without a PEO, on a non-chordal candidate set
        maximum_weighted_stable_set(cycle, candidates=["a", "b", "c", "d"])
    assert maximum_weighted_stable_set(cycle, candidates=["a", "b", "c", "e"]) == \
        reference_frank(cycle, candidates=["a", "b", "c", "e"])
