"""Tests for chordality machinery: MCS, Lex-BFS, PEOs, chordality check."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotChordalError
from repro.graphs.chordal import (
    is_chordal,
    is_perfect_elimination_order,
    lex_bfs,
    maximum_cardinality_search,
    perfect_elimination_order,
    simplicial_vertices,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_chordal_graph,
    random_general_graph,
    random_interval_graph,
)
from repro.graphs.graph import Graph


def _to_networkx(graph: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(graph.vertices())
    G.add_edges_from(graph.edges())
    return G


# ---------------------------------------------------------------------- #
# known graphs
# ---------------------------------------------------------------------- #
def test_empty_graph_is_chordal():
    assert is_chordal(Graph())
    assert perfect_elimination_order(Graph()) == []


def test_single_vertex_and_edge_are_chordal():
    g = Graph()
    g.add_vertex("a")
    assert is_chordal(g)
    g.add_edge("a", "b")
    assert is_chordal(g)


def test_triangle_is_chordal():
    assert is_chordal(complete_graph(3))


def test_complete_graph_is_chordal():
    assert is_chordal(complete_graph(6))


def test_path_is_chordal():
    assert is_chordal(path_graph(7))


def test_cycle4_is_not_chordal():
    assert not is_chordal(cycle_graph(4))


def test_cycle5_is_not_chordal():
    assert not is_chordal(cycle_graph(5))


def test_cycle3_is_chordal():
    assert is_chordal(cycle_graph(3))


def test_paper_figure4_graph_is_chordal(figure4_graph):
    assert is_chordal(figure4_graph)


def test_paper_figure7_graph_is_chordal(figure7_graph):
    assert is_chordal(figure7_graph)


def test_figure3a_arbitrary_graph_is_not_chordal():
    # Paper Figure 3(a): the 4-cycle a-b-d-c-a without chord.
    g = Graph.from_edges([("a", "b"), ("b", "d"), ("d", "c"), ("c", "a")])
    assert not is_chordal(g)


# ---------------------------------------------------------------------- #
# orderings
# ---------------------------------------------------------------------- #
def test_mcs_order_covers_all_vertices():
    g = random_chordal_graph(30, rng=1)
    order = maximum_cardinality_search(g)
    assert sorted(order, key=str) == sorted(g.vertices(), key=str)


def test_lex_bfs_covers_all_vertices():
    g = random_chordal_graph(30, rng=2)
    order = lex_bfs(g)
    assert sorted(order, key=str) == sorted(g.vertices(), key=str)


def test_mcs_reverse_is_peo_on_chordal_graph():
    g = random_chordal_graph(40, rng=3)
    order = list(reversed(maximum_cardinality_search(g)))
    assert is_perfect_elimination_order(g, order)


def test_lex_bfs_reverse_is_peo_on_chordal_graph():
    g = random_chordal_graph(40, rng=4)
    order = list(reversed(lex_bfs(g)))
    assert is_perfect_elimination_order(g, order)


def test_peo_rejects_wrong_vertex_set():
    g = complete_graph(3)
    assert not is_perfect_elimination_order(g, ["v0", "v1"])
    assert not is_perfect_elimination_order(g, ["v0", "v1", "v1"])


def test_peo_detects_non_chordal():
    g = cycle_graph(4)
    for order in (["v0", "v1", "v2", "v3"], ["v0", "v2", "v1", "v3"]):
        assert not is_perfect_elimination_order(g, order)


def test_perfect_elimination_order_raises_on_non_chordal():
    with pytest.raises(NotChordalError):
        perfect_elimination_order(cycle_graph(5))


def test_paper_peo_example_accepted(figure4_graph):
    # The paper states [a, f, d, e, b, g, c] is a PEO of Figure 4's graph.
    assert is_perfect_elimination_order(figure4_graph, list("afdebgc"))


def test_simplicial_vertices_of_path():
    g = path_graph(4)
    simplicial = set(simplicial_vertices(g))
    # Path endpoints are simplicial; inner vertices have two non-adjacent neighbors.
    assert simplicial == {"v0", "v3"}


def test_interval_graphs_are_chordal():
    for seed in range(5):
        g, _ = random_interval_graph(25, rng=seed)
        assert is_chordal(g)


def test_mcs_with_start_vertex():
    g = path_graph(5)
    order = maximum_cardinality_search(g, start="v2")
    assert set(order) == set(g.vertices())


# ---------------------------------------------------------------------- #
# property-based cross-checks against networkx
# ---------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 25), p=st.floats(0.05, 0.6))
def test_is_chordal_matches_networkx_on_random_graphs(seed, n, p):
    g = random_general_graph(n, rng=seed, edge_prob=p)
    assert is_chordal(g) == nx.is_chordal(_to_networkx(g))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_random_chordal_generator_is_chordal(seed, n):
    g = random_chordal_graph(n, rng=seed)
    assert is_chordal(g)
    assert nx.is_chordal(_to_networkx(g))


# ---------------------------------------------------------------------- #
# partition-refinement lex-BFS (regression: the seed rebuilt every block
# per pivot, making the traversal quadratic)
# ---------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
def test_both_orderings_are_peos_on_chordal_corpora(seed, n):
    g = random_chordal_graph(n, rng=seed)
    assert is_perfect_elimination_order(g, list(reversed(maximum_cardinality_search(g))))
    assert is_perfect_elimination_order(g, list(reversed(lex_bfs(g))))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
def test_lex_bfs_is_deterministic_and_a_permutation(seed, n):
    g = random_chordal_graph(n, rng=seed)
    order = lex_bfs(g)
    assert sorted(order, key=str) == sorted(g.vertices(), key=str)
    assert order == lex_bfs(g)


def test_lex_bfs_with_start_vertex_still_yields_peo():
    g = random_chordal_graph(25, rng=8)
    for start in list(g.vertices())[:5]:
        order = lex_bfs(g, start=start)
        assert order[0] == start
        assert is_perfect_elimination_order(g, list(reversed(order)))


def test_lex_bfs_matches_networkx_lexicographic_labels():
    """Reverse lex-BFS of an interval graph is a PEO networkx agrees with."""
    g, _ = random_interval_graph(40, rng=9)
    order = list(reversed(lex_bfs(g)))
    assert is_perfect_elimination_order(g, order)
    assert nx.is_chordal(_to_networkx(g))


def test_lex_bfs_runtime_grows_subquadratically(monkeypatch):
    """Counted work, not wall-clock: neighbour-set visits (iterated members
    and membership probes) plus partition blocks opened.  Linear refinement
    stays within a small multiple of |V|+|E| at every size; the seed's
    full-partition rebuild probed every remaining vertex per pivot, which is
    quadratic."""
    from repro.graphs import chordal

    work = {"ops": 0}

    class CountingSet(set):
        def __contains__(self, item):
            work["ops"] += 1
            return set.__contains__(self, item)

        def __iter__(self):
            for item in set.__iter__(self):
                work["ops"] += 1
                yield item

    class CountingBlock(chordal._Block):
        def __init__(self):
            work["ops"] += 1
            super().__init__()

    monkeypatch.setattr(chordal, "_Block", CountingBlock)
    counted = {}
    for n in (500, 2000):
        g = random_chordal_graph(n, rng=n, extra_edge_prob=0.5)
        for v in g.vertices():  # lex-BFS reads each neighbourhood through this cache
            g._sets[v] = CountingSet(g.neighbors(v))
        work["ops"] = 0
        order = lex_bfs(g)
        assert sorted(order, key=str) == sorted(g.vertices(), key=str)
        size = len(g) + g.num_edges()
        counted[n] = (work["ops"], size)
        assert work["ops"] <= 3 * size, counted
    op_ratio = counted[2000][0] / counted[500][0]
    size_ratio = counted[2000][1] / counted[500][1]
    assert op_ratio <= 2 * size_ratio, counted
