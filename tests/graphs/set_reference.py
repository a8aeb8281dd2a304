"""Set-based reference kernels: the oracle the row kernels are checked against.

Every :class:`~repro.graphs.graph.Graph` stores bitmask rows, and the
library's chordal kernels and digest work on them.  The bodies
below are the adjacency-set formulations those kernels replaced, kept
verbatim and reading the graph only through ``neighbors()``, ``vertices()``
and ``weight()``: the kernels must return exactly what they return — same
results, same orders, same tie-breaking, same error texts.  The digest's
reference hashes the materialised canonical payload.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import GraphError, NotChordalError
from repro.graphs.graph import Graph, Vertex
from repro.graphs.io import canonical_graph_payload


def reference_mcs(graph: Graph, start: Optional[Vertex] = None) -> List[Vertex]:
    """Maximum cardinality search with a lazy max-heap over adjacency sets."""
    if len(graph) == 0:
        return []
    if start is not None and start not in graph:
        raise GraphError(f"unknown start vertex {start!r}")

    order: List[Vertex] = []
    visited: Set[Vertex] = set()
    count: Dict[Vertex, int] = {v: 0 for v in graph}
    # Heap of (-count, tie, vertex); stale entries are skipped lazily.
    tie = {v: i for i, v in enumerate(graph)}
    heap: List[tuple] = []
    if start is not None:
        heapq.heappush(heap, (0, -1, start))
    for v in graph:
        heapq.heappush(heap, (0, tie[v], v))

    while len(order) < len(graph):
        while True:
            neg, _, v = heapq.heappop(heap)
            if v not in visited and -neg == count[v]:
                break
        visited.add(v)
        order.append(v)
        for u in graph.neighbors(v):
            if u not in visited:
                count[u] += 1
                heapq.heappush(heap, (-count[u], tie[u], u))
    return order


def reference_is_peo(graph: Graph, order: Sequence[Vertex]) -> bool:
    """Golumbic's earliest-later-neighbour PEO check over adjacency sets."""
    if set(order) != set(graph.vertices()) or len(order) != len(graph):
        return False
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in graph.neighbors(v) if position[u] > position[v]]
        if not later:
            continue
        pivot = min(later, key=lambda u: position[u])
        pivot_nbrs = graph.neighbors(pivot)
        for u in later:
            if u is pivot or u == pivot:
                continue
            if u not in pivot_nbrs:
                return False
    return True


def reference_peo(graph: Graph) -> List[Vertex]:
    """A PEO from the reference MCS, or :class:`NotChordalError`."""
    order = list(reversed(reference_mcs(graph)))
    if not reference_is_peo(graph, order):
        raise NotChordalError("graph is not chordal: no perfect elimination order exists")
    return order


def reference_maximal_cliques_chordal(graph: Graph, peo: Sequence[Vertex] | None = None) -> List[frozenset]:
    """``{v} ∪ later-neighbours(v)`` candidates, containment-filtered."""
    if len(graph) == 0:
        return []
    if peo is None:
        peo = list(reversed(reference_mcs(graph)))
    position = {v: i for i, v in enumerate(peo)}
    candidates = []
    for v in peo:
        later = {u for u in graph.neighbors(v) if position[u] > position[v]}
        candidates.append({v} | later)
    # Keep only candidates not strictly contained in another candidate.
    candidates.sort(key=len, reverse=True)
    maximal: List[frozenset] = []
    for cand in candidates:
        if any(cand < other for other in maximal):
            continue
        frozen = frozenset(cand)
        if frozen not in maximal:
            maximal.append(frozen)
    seen: Set[frozenset] = set()
    unique: List[frozenset] = []
    for c in maximal:
        if c not in seen:
            seen.add(c)
            unique.append(c)
    return unique


def reference_frank(
    graph: Graph,
    weights: Optional[Dict[Vertex, float]] = None,
    peo: Optional[Sequence[Vertex]] = None,
    candidates: Optional[Iterable[Vertex]] = None,
) -> List[Vertex]:
    """Frank's marking and selection phases over adjacency sets."""
    if len(graph) == 0:
        return []
    if candidates is None:
        cand: Set[Vertex] = set(graph.vertices())
    else:
        cand = {v for v in candidates if v in graph}
        if not cand:
            return []
    if peo is None:
        base = graph if len(cand) == len(graph) else graph.subgraph(cand)
        peo = reference_peo(base)
    if weights is None:
        weights = {v: graph.weight(v) for v in cand}
    else:
        missing = [v for v in cand if v not in weights]
        if missing:
            raise GraphError(f"weights missing for vertices: {missing!r}")

    position: Dict[Vertex, int] = {}
    for v in peo:
        if v in cand:
            position[v] = len(position)
    if len(position) != len(cand):
        absent = [v for v in cand if v not in position]
        raise GraphError(f"peo missing candidate vertices: {absent!r}")

    residual: Dict[Vertex, float] = {v: float(weights[v]) for v in cand}
    marked: List[Vertex] = []
    for v in peo:
        if v not in cand or residual[v] <= 0:
            continue
        marked.append(v)
        amount = residual[v]
        pos_v = position[v]
        for u in graph.neighbors(v):
            if u in cand and position[u] > pos_v:
                residual[u] = max(0.0, residual[u] - amount)
        residual[v] = 0.0

    chosen: List[Vertex] = []
    chosen_set: Set[Vertex] = set()
    for v in reversed(marked):
        if not (graph.neighbors(v) & chosen_set):
            chosen.append(v)
            chosen_set.add(v)
    return chosen


def reference_restricted_coloring(graph: Graph, peo: Sequence[Vertex], members: Iterable[Vertex]) -> Dict[Vertex, int]:
    """Greedy colouring along ``reversed(peo)`` restricted to ``members``."""
    keep = set(members)
    colors: Dict[Vertex, int] = {}
    for v in (v for v in reversed(peo) if v in keep):
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        color = 0
        while color in used:
            color += 1
        colors[v] = color
    return colors


def reference_restricted_clique_number(graph: Graph, peo: Sequence[Vertex], members: Iterable[Vertex]) -> int:
    """The largest ``1 + |neighbours(v) ∩ later members|``."""
    keep = set(members)
    later: Set[Vertex] = set()
    omega = 0
    for v in reversed(peo):
        if v in keep:
            omega = max(omega, 1 + len(graph.neighbors(v) & later))
            later.add(v)
    return omega


def reference_digest(graph: Graph) -> str:
    """SHA-256 of the materialised canonical payload (what ``graph_digest`` streams)."""
    payload = json.dumps(canonical_graph_payload(graph), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def set_built(graph: Graph) -> Graph:
    """``graph`` rebuilt vertex by vertex and edge by edge through the
    mutation API, in its own insertion order."""
    out = Graph()
    for v in graph.vertices():
        out.add_vertex(v, graph.weight(v))
    for u, v in graph.edges():
        out.add_edge(u, v)
    return out
