"""Tests for the random graph generators."""

import random

import pytest

from repro.errors import GraphError
from repro.graphs.chordal import is_chordal
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_chordal_graph,
    random_general_graph,
    random_interval_graph,
    random_weights,
)
from repro.graphs.io import graph_digest


def test_random_weights_are_positive_and_deterministic():
    names = [f"v{i}" for i in range(50)]
    w1 = random_weights(names, rng=7)
    w2 = random_weights(names, rng=7)
    assert w1 == w2
    assert all(value > 0 for value in w1.values())


def test_random_weights_loop_bias_creates_skew():
    names = [f"v{i}" for i in range(200)]
    weights = random_weights(names, rng=1, low=1, high=2, loop_bias=0.5)
    assert max(weights.values()) > 10 * min(weights.values())


def test_random_interval_graph_matches_intervals():
    g, intervals = random_interval_graph(20, rng=3)
    assert set(g.vertices()) == set(intervals)
    for u in g.vertices():
        for v in g.vertices():
            if u == v:
                continue
            su, eu = intervals[u]
            sv, ev = intervals[v]
            overlap = su < ev and sv < eu
            assert g.has_edge(u, v) == overlap


def test_random_interval_graph_is_chordal():
    for seed in range(5):
        g, _ = random_interval_graph(30, rng=seed)
        assert is_chordal(g)


def test_random_chordal_graph_is_chordal_and_deterministic():
    g1 = random_chordal_graph(25, rng=11)
    g2 = random_chordal_graph(25, rng=11)
    assert is_chordal(g1)
    assert {frozenset(e) for e in g1.edges()} == {frozenset(e) for e in g2.edges()}
    assert g1.weights() == g2.weights()


def test_random_chordal_graph_accepts_random_instance():
    rng = random.Random(5)
    g = random_chordal_graph(10, rng=rng)
    assert len(g) == 10


def test_random_general_graph_edge_probability_extremes():
    empty = random_general_graph(10, rng=1, edge_prob=0.0)
    assert empty.num_edges() == 0
    full = random_general_graph(10, rng=1, edge_prob=1.0)
    assert full.num_edges() == 10 * 9 // 2


def test_cycle_graph_structure():
    g = cycle_graph(5)
    assert len(g) == 5
    assert g.num_edges() == 5
    assert all(g.degree(v) == 2 for v in g.vertices())


def test_complete_graph_structure():
    g = complete_graph(6)
    assert g.num_edges() == 15
    assert all(g.degree(v) == 5 for v in g.vertices())


def test_path_graph_structure():
    g = path_graph(4)
    assert g.num_edges() == 3
    assert g.degree("v0") == 1
    assert g.degree("v1") == 2


def test_generators_honor_custom_weights():
    weights = {f"v{i}": float(i + 1) for i in range(4)}
    for graph in (cycle_graph(4, weights), complete_graph(4, weights), path_graph(4, weights)):
        assert graph.weight("v2") == 3.0


#: ``graph_digest`` of generated graphs, computed when the generators still
#: added their edges one ``Graph.add_edge`` call at a time: building the rows
#: for one ``Graph.from_rows`` call keeps every random draw and every graph.
PINNED_DIGESTS = {
    "interval(40, rng=3)": (
        lambda: random_interval_graph(40, rng=3)[0],
        "b2d681ea02cc9d65a885ff221ad9ae1fd97231ffafbeeedb99852657c7ce83fb",
    ),
    "interval(300, rng=42, span=300, max_length=60)": (
        lambda: random_interval_graph(300, rng=42, span=300, max_length=60)[0],
        "bae00523790e6f5743ff32969b05e3f2c058760ed3127fadbd46e840df79a9d0",
    ),
    "chordal(50, rng=7)": (
        lambda: random_chordal_graph(50, rng=7),
        "46030f0da341ab24c86154d3e006a0f61b0aaf1f5e1efcb418e846c7bb55db72",
    ),
    "chordal(200, rng=11, extra_edge_prob=0.5)": (
        lambda: random_chordal_graph(200, rng=11, extra_edge_prob=0.5),
        "7db091f0dc1095649767af3ac25ca6ad3d74e1c273ae18f0de20c3d8abccbb0b",
    ),
    "general(40, rng=5)": (
        lambda: random_general_graph(40, rng=5),
        "79e3789c32f0c7a163f7bc513977fba6a6814373aab3815ef5565c3554a5751e",
    ),
    "general(60, rng=9, edge_prob=0.4)": (
        lambda: random_general_graph(60, rng=9, edge_prob=0.4),
        "c4a9f5fae52b10009070e64408bba154faf5a61751fb7d445d878fca5b487a0a",
    ),
    "cycle(7)": (lambda: cycle_graph(7), "15022a463021fee2e1e325eae8ce05cbcd74997657509c9ec7f8b5e56d7ed67b"),
    "cycle(2)": (lambda: cycle_graph(2), "f86523056fd73489799d94c8feb4c7c7fb47eb28a26fa42f003318917a689f90"),
    "complete(6)": (lambda: complete_graph(6), "48d908be68184e70db47875117c481fffe97427408d4a47a3d4fc984d855aed2"),
    "path(5)": (lambda: path_graph(5), "6dab2825cf1c73543c93c44e2f741a1b3d7cc5f3deef235d3c2c3624c8808775"),
}


@pytest.mark.parametrize("call", sorted(PINNED_DIGESTS))
def test_generated_graphs_are_pinned(call):
    build, digest = PINNED_DIGESTS[call]
    assert graph_digest(build()) == digest


def test_cycle_of_one_vertex_is_a_self_loop_error():
    with pytest.raises(GraphError, match="self-loop on 'v0' is not allowed"):
        cycle_graph(1)
