"""Serialization and content-addressing of weighted interference graphs.

The paper's prototype operated on interference graphs *extracted* from Open64
and JikesRVM and stored on disk.  This module defines the equivalent exchange
format for this reproduction: a small JSON document with vertices, weights and
edges, so corpora of extracted graphs can be cached and shared between the
experiment harness and the benchmarks.  Files ending in ``.gz`` are
transparently gzip-compressed so cached corpora stay small.

It also defines the *canonical digest* of a graph: a SHA-256 over the
sorted-adjacency representation, independent of vertex/edge insertion order.
The experiment store (:mod:`repro.store`) uses this digest to content-address
cached allocation results.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Union

from repro.errors import GraphError
from repro.graphs.graph import Graph, bit_indices

FORMAT_VERSION = 1


def graph_to_dict(graph: Graph, name: str | None = None) -> Dict[str, Any]:
    """Convert ``graph`` to a JSON-serializable dictionary."""
    return {
        "format": "repro-interference-graph",
        "version": FORMAT_VERSION,
        "name": name,
        "vertices": [{"id": str(v), "weight": graph.weight(v)} for v in graph.vertices()],
        "edges": [[str(u), str(v)] for u, v in graph.edges()],
    }


def graph_from_dict(data: Any) -> Graph:
    """Reconstruct a :class:`Graph` from :func:`graph_to_dict` output.

    Every vertex entry is an object with a string ``id``, unique in the
    document, and an optional numeric ``weight`` (default 1.0); every edge
    is a pair of listed ids.  Anything else raises :class:`GraphError`
    naming the offending entry.
    """
    if not isinstance(data, dict) or data.get("format") != "repro-interference-graph":
        raise GraphError("not a repro interference graph document")
    if data.get("version") != FORMAT_VERSION:
        raise GraphError(f"unsupported format version {data.get('version')!r}")
    entries = data.get("vertices", [])
    edges = data.get("edges", [])
    for field, value in (("vertices", entries), ("edges", edges)):
        if not isinstance(value, list):
            raise GraphError(f'graph field "{field}" must be a list, got {type(value).__name__}')
    index: Dict[str, int] = {}
    weights: List[float] = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise GraphError(f'vertex entry {position} must be an object with a string "id", got {entry!r}')
        v = entry["id"]
        if v in index:
            raise GraphError(f"vertex entry {position}: duplicate id {v!r}")
        weight = entry.get("weight", 1.0)
        try:
            number = float(weight) if isinstance(weight, (int, float)) and not isinstance(weight, bool) else None
        except OverflowError:  # an integer literal no float holds
            number = None
        if number is None:
            raise GraphError(f"vertex entry {position} ({v!r}): weight must be a number, got {weight!r}")
        weights.append(number)  # from_rows rejects negative and NaN weights
        index[v] = position
    rows = [0] * len(index)
    for position, edge in enumerate(edges):
        if not isinstance(edge, list) or len(edge) != 2:
            raise GraphError(f"edge entry {position} must be a pair of vertex ids, got {edge!r}")
        u, v = edge
        i = index.get(u) if isinstance(u, str) else None
        j = index.get(v) if isinstance(v, str) else None
        if i is None or j is None:
            raise GraphError(f"edge ({u!r}, {v!r}) references unknown vertex")
        if i == j:
            raise GraphError(f"edge ({u!r}, {v!r}): self-loop on {u!r} is not allowed")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph.from_rows(list(index), rows, weights)


# ---------------------------------------------------------------------- #
# content addressing
# ---------------------------------------------------------------------- #
def canonical_graph_payload(graph: Graph) -> Dict[str, Any]:
    """The insertion-order-independent representation hashed by the digest.

    Vertices are sorted by their string form, edges by their sorted endpoint
    pair, so two graphs built in different orders canonicalize identically.
    """
    vertices = sorted((str(v), float(graph.weight(v))) for v in graph.vertices())
    edges = sorted(
        (str(u), str(v)) if str(u) <= str(v) else (str(v), str(u))
        for u, v in graph.edges()
    )
    return {"vertices": vertices, "edges": edges}


def graph_digest(graph: Graph) -> str:
    """SHA-256 hex digest of the canonical sorted-adjacency representation.

    The hashed bytes are exactly ``json.dumps(canonical_graph_payload(graph),
    sort_keys=True, separators=(",", ":"))``, streamed without building the
    payload: each name is stringified and JSON-quoted once, the vertices are
    ranked by name once, and the edges are hashed row by row in rank order,
    each row listing a vertex's higher-ranked neighbours.  Vertices that
    share a string form (``1`` and ``"1"``) would break that order, so such
    a graph hashes the materialised payload instead.
    """
    vertices = graph.vertices()
    names = [str(v) for v in vertices]
    if len(set(names)) < len(names):
        payload = json.dumps(canonical_graph_payload(graph), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
    by_rank = sorted(range(len(names)), key=names.__getitem__)
    rank = [0] * len(names)
    for r, i in enumerate(by_rank):
        rank[i] = r
    quoted = [encode_basestring_ascii(names[i]) for i in by_rank]

    hasher = hashlib.sha256(b'{"edges":[')
    separator = ""
    for r, higher in enumerate(_higher_ranked_neighbours(graph, by_rank, rank)):
        if higher:  # the edges [a,b],[a,c],... of vertex a, JSON-encoded
            head = "[" + quoted[r] + ","
            row = head + ("]," + head).join(map(quoted.__getitem__, higher)) + "]"
            hasher.update((separator + row).encode())
            separator = ","
    vertex_list = [(names[i], float(graph.weight(vertices[i]))) for i in by_rank]
    hasher.update(b'],"vertices":' + json.dumps(vertex_list, separators=(",", ":")).encode() + b"}")
    return hasher.hexdigest()


def _higher_ranked_neighbours(graph: Graph, by_rank: List[int], rank: List[int]) -> Iterator[List[int]]:
    """For each vertex in rank order, the ranks of its higher-ranked neighbours, ascending.

    They are read off the adjacency rows, masked by the vertices not yet
    emitted.
    """
    rows = graph.rows()
    pending = (1 << len(rows)) - 1
    for i in by_rank:
        pending ^= 1 << i
        yield sorted([rank[j] for j in bit_indices(rows[i] & pending)])


# ---------------------------------------------------------------------- #
# file I/O
# ---------------------------------------------------------------------- #
def _open_text(path: Path, mode: str) -> IO[str]:
    """Open ``path`` for text I/O, transparently gzipping ``*.gz`` files."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")


def dump_graph(graph: Graph, path: Union[str, Path], name: str | None = None) -> None:
    """Write ``graph`` to ``path`` as JSON (gzip-compressed for ``*.json.gz``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _open_text(path, "w") as handle:
        json.dump(graph_to_dict(graph, name=name), handle, indent=2, sort_keys=False)


def load_graph(path: Union[str, Path]) -> Graph:
    """Load a graph previously written with :func:`dump_graph`.

    A file that does not decode as (gzipped) UTF-8 JSON raises
    :class:`GraphError`, as a malformed document does.
    """
    try:
        with _open_text(Path(path), "r") as handle:
            data = json.load(handle)
    except (ValueError, EOFError, OSError) as error:
        raise GraphError(f"not a graph JSON file: {error}") from None
    return graph_from_dict(data)
