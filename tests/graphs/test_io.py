"""Tests for graph serialization."""

import json

import pytest

from repro.errors import GraphError
from repro.graphs.generators import random_chordal_graph
from repro.graphs.io import dump_graph, graph_from_dict, graph_to_dict, load_graph
from tests.conftest import MALFORMED_GRAPH_DOCUMENTS


def graphs_equal(a, b):
    return (
        set(map(str, a.vertices())) == set(map(str, b.vertices()))
        and {frozenset(map(str, e)) for e in a.edges()} == {frozenset(map(str, e)) for e in b.edges()}
        and {str(v): a.weight(v) for v in a.vertices()} == {str(v): b.weight(v) for v in b.vertices()}
    )


def test_roundtrip_through_dict(figure4_graph):
    data = graph_to_dict(figure4_graph, name="figure4")
    restored = graph_from_dict(data)
    assert graphs_equal(figure4_graph, restored)
    assert data["name"] == "figure4"


def test_roundtrip_through_file(tmp_path):
    g = random_chordal_graph(20, rng=9)
    path = tmp_path / "sub" / "graph.json"
    dump_graph(g, path, name="random20")
    restored = load_graph(path)
    assert graphs_equal(g, restored)
    # The file itself is valid JSON with the expected envelope.
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro-interference-graph"
    assert payload["version"] == 1


def test_roundtrip_through_gzip_file(tmp_path):
    g = random_chordal_graph(20, rng=9)
    plain = tmp_path / "graph.json"
    compressed = tmp_path / "graph.json.gz"
    dump_graph(g, plain, name="random20")
    dump_graph(g, compressed, name="random20")
    assert graphs_equal(g, load_graph(compressed))
    # Actually gzip on disk (magic bytes), and the same document once inflated.
    raw = compressed.read_bytes()
    assert raw[:2] == b"\x1f\x8b"
    import gzip

    assert json.loads(gzip.decompress(raw)) == json.loads(plain.read_text())
    assert len(raw) < plain.stat().st_size


def test_from_dict_rejects_wrong_format():
    with pytest.raises(GraphError):
        graph_from_dict({"format": "something-else", "version": 1})


def test_from_dict_rejects_wrong_version(figure4_graph):
    data = graph_to_dict(figure4_graph)
    data["version"] = 99
    with pytest.raises(GraphError):
        graph_from_dict(data)


def test_from_dict_rejects_dangling_edge():
    data = {
        "format": "repro-interference-graph",
        "version": 1,
        "vertices": [{"id": "a", "weight": 1.0}],
        "edges": [["a", "ghost"]],
    }
    with pytest.raises(GraphError):
        graph_from_dict(data)


def test_vertex_weights_default_to_one():
    data = {
        "format": "repro-interference-graph",
        "version": 1,
        "vertices": [{"id": "a"}],
        "edges": [],
    }
    assert graph_from_dict(data).weight("a") == 1.0


@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPH_DOCUMENTS))
def test_from_dict_rejects_malformed_documents_with_a_typed_error(name):
    with pytest.raises(GraphError) as raised:
        graph_from_dict(MALFORMED_GRAPH_DOCUMENTS[name])
    message = str(raised.value)
    assert ("entry 0" in message or "entry 1" in message or "edge" in message
            or '"vertices"' in message or "vertex 'a'" in message), message


def test_from_dict_names_the_duplicate_entry():
    with pytest.raises(GraphError, match="vertex entry 1: duplicate id 'a'"):
        graph_from_dict(MALFORMED_GRAPH_DOCUMENTS["duplicate-id"])


def test_from_dict_takes_integer_weights_and_rejects_booleans():
    document = {"format": "repro-interference-graph", "version": 1,
                "vertices": [{"id": "a", "weight": 3}], "edges": []}
    assert graph_from_dict(document).weight("a") == 3.0
    document["vertices"][0]["weight"] = True
    with pytest.raises(GraphError, match="weight must be a number"):
        graph_from_dict(document)
    document["vertices"][0]["weight"] = 10 ** 400  # no float holds it
    with pytest.raises(GraphError, match="weight must be a number"):
        graph_from_dict(document)
    with pytest.raises(GraphError, match="not a repro interference graph"):
        graph_from_dict(["not", "a", "document"])


def test_round_trip_keeps_vertex_order_rows_and_edge_order():
    g = random_chordal_graph(30, rng=4)
    restored = graph_from_dict(graph_to_dict(g))
    assert restored.vertices() == [str(v) for v in g.vertices()]
    assert restored.rows() == g.rows()
    assert graph_to_dict(restored) == graph_to_dict(g)
