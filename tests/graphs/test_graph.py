"""Unit tests for the weighted undirected graph."""

import pytest

from repro.errors import GraphError
from repro.graphs.dense import DenseGraph
from repro.graphs.graph import Graph
from repro.graphs.io import graph_from_dict, graph_to_dict


def test_add_vertex_and_weight():
    g = Graph()
    g.add_vertex("a", weight=2.5)
    assert "a" in g
    assert g.weight("a") == 2.5
    assert len(g) == 1


def test_add_vertex_default_weight_is_one():
    g = Graph()
    g.add_vertex("a")
    assert g.weight("a") == 1.0


def test_re_adding_vertex_updates_weight_keeps_edges():
    g = Graph()
    g.add_edge("a", "b")
    g.add_vertex("a", weight=7)
    assert g.weight("a") == 7
    assert g.has_edge("a", "b")


def test_negative_weight_rejected():
    g = Graph()
    with pytest.raises(GraphError):
        g.add_vertex("a", weight=-1)


def test_add_edge_creates_vertices():
    g = Graph()
    g.add_edge("a", "b")
    assert g.has_edge("a", "b")
    assert g.has_edge("b", "a")
    assert g.degree("a") == 1


def test_self_loop_rejected():
    g = Graph()
    with pytest.raises(GraphError):
        g.add_edge("a", "a")


def test_parallel_edges_collapse():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    assert g.num_edges() == 1


def test_remove_vertex_removes_incident_edges():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.remove_vertex("b")
    assert "b" not in g
    assert not g.has_edge("a", "b")
    assert g.num_edges() == 0


def test_remove_unknown_vertex_raises():
    g = Graph()
    with pytest.raises(GraphError):
        g.remove_vertex("missing")


def test_remove_edge():
    g = Graph()
    g.add_edge("a", "b")
    g.remove_edge("a", "b")
    assert not g.has_edge("a", "b")
    assert "a" in g and "b" in g


def test_set_weight_unknown_vertex_raises():
    g = Graph()
    with pytest.raises(GraphError):
        g.set_weight("a", 2)


def test_neighbors_and_degree():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    assert g.neighbors("a") == {"b", "c"}
    assert g.degree("a") == 2
    assert g.degree("b") == 1


def test_neighbors_of_unknown_vertex_raises():
    g = Graph()
    with pytest.raises(GraphError):
        g.neighbors("zzz")


def test_edges_listed_once():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    edges = {frozenset(e) for e in g.edges()}
    assert edges == {frozenset({"a", "b"}), frozenset({"b", "c"})}
    assert g.num_edges() == 2


def test_total_weight():
    g = Graph()
    g.add_vertex("a", 1)
    g.add_vertex("b", 2)
    g.add_vertex("c", 3)
    assert g.total_weight() == 6
    assert g.total_weight(["a", "c"]) == 4


def test_copy_is_independent():
    g = Graph()
    g.add_edge("a", "b")
    h = g.copy()
    h.add_edge("a", "c")
    assert not g.has_edge("a", "c")
    assert h.has_edge("a", "b")


def test_subgraph_induces_edges():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    g.add_vertex("d", 9)
    sub = g.subgraph(["a", "b", "d"])
    assert set(sub.vertices()) == {"a", "b", "d"}
    assert sub.has_edge("a", "b")
    assert not sub.has_edge("b", "c")
    assert sub.weight("d") == 9


def test_subgraph_ignores_unknown_vertices():
    g = Graph()
    g.add_vertex("a")
    sub = g.subgraph(["a", "ghost"])
    assert set(sub.vertices()) == {"a"}


def test_without():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    rest = g.without(["b"])
    assert set(rest.vertices()) == {"a", "c"}
    assert rest.num_edges() == 0


def test_is_clique():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    g.add_vertex("d")
    assert g.is_clique(["a", "b", "c"])
    assert g.is_clique(["a"])
    assert g.is_clique([])
    assert not g.is_clique(["a", "b", "d"])


def test_from_edges_with_weights_and_isolated():
    g = Graph.from_edges(
        [("a", "b")], weights={"a": 5, "c": 2}, isolated=["c"]
    )
    assert g.weight("a") == 5
    assert g.weight("c") == 2
    assert g.degree("c") == 0
    assert g.has_edge("a", "b")


def test_vertices_preserve_insertion_order():
    g = Graph()
    for name in ["z", "a", "m"]:
        g.add_vertex(name)
    assert g.vertices() == ["z", "a", "m"]


# ---------------------------------------------------------------------- #
# induced views (the no-copy subgraphs behind the layered fast path)
# ---------------------------------------------------------------------- #
def _abc_graph():
    g = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "d")],
        weights={"a": 1, "b": 2, "c": 3, "d": 4},
        isolated=["e"],
    )
    return g


def test_induced_view_matches_subgraph_semantics():
    g = _abc_graph()
    for keep in (["a", "b"], ["a", "c", "e"], ["a", "b", "c", "d", "e"], [], ["ghost", "a"]):
        view = g.induced_view(keep)
        copy = g.subgraph(keep)
        assert view.vertices() == copy.vertices()
        assert len(view) == len(copy)
        assert view.num_edges() == copy.num_edges()
        assert view.weights() == copy.weights()
        assert sorted(view.edges()) == sorted(copy.edges())
        for v in copy.vertices():
            assert view.neighbors(v) == copy.neighbors(v)
            assert view.degree(v) == copy.degree(v)


def test_induced_view_does_not_copy_adjacency():
    g = _abc_graph()
    view = g.induced_view(["a", "b", "c"])
    assert view.has_edge("a", "b")
    assert not view.has_edge("c", "d")  # d outside the mask
    assert "d" not in view
    with pytest.raises(GraphError):
        view.neighbors("d")
    with pytest.raises(GraphError):
        view.weight("ghost")


def test_induced_view_materialize_round_trips():
    g = _abc_graph()
    view = g.induced_view(["b", "c", "d"])
    copy = view.materialize()
    assert copy.vertices() == view.vertices()
    assert copy.num_edges() == view.num_edges()


def test_induced_view_total_weight_and_clique():
    g = _abc_graph()
    view = g.induced_view(["a", "b", "c"])
    assert view.total_weight() == 6
    assert view.total_weight(["a", "c"]) == 4
    assert view.is_clique(["a", "b"])
    assert not view.is_clique(["a", "c"])


def test_nan_weight_rejected_everywhere_a_weight_enters():
    nan = float("nan")
    g = Graph()
    with pytest.raises(GraphError, match="NaN weight"):
        g.add_vertex("a", weight=nan)
    g.add_vertex("a", weight=1.0)
    with pytest.raises(GraphError, match="NaN weight"):
        g.set_weight("a", nan)
    with pytest.raises(GraphError, match="NaN weight"):
        g.add_vertex("a", weight=nan)
    assert g.weight("a") == 1.0
    with pytest.raises(GraphError, match="NaN weight"):
        DenseGraph.from_rows(["a"], [0], [nan])
    dense = DenseGraph.from_rows(["a"], [0], [1.0])
    with pytest.raises(GraphError, match="NaN weight"):
        dense.add_vertex("a", nan)  # the weight-only update keeps the rows
    with pytest.raises(GraphError, match="NaN weight"):
        dense.set_weight("a", nan)
    assert dense.dense_rows() == [0] and dense.weight("a") == 1.0
    document = graph_to_dict(g)
    document["vertices"][0]["weight"] = nan
    with pytest.raises(GraphError, match="NaN weight"):
        graph_from_dict(document)


def test_infinite_weight_stays_accepted():
    g = Graph()
    g.add_vertex("a", weight=float("inf"))
    assert g.weight("a") == float("inf")
