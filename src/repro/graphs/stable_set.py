"""Maximum weighted stable (independent) sets.

The heart of the layered-optimal allocator: with one register, the
optimal allocation on a chordal interference graph is exactly a maximum
weighted stable set, computable in ``O(|V|+|E|)`` with Frank's algorithm
(Frank 1975) given a perfect elimination order — the paper's Algorithm 1.

Three implementations are provided:

* :func:`maximum_weighted_stable_set` — Frank's exact algorithm for chordal
  graphs (the paper's Algorithm 1);
* :func:`greedy_weighted_stable_set` — the greedy approximation used by the
  layered *heuristic* on general graphs (inner loop of Algorithm 5);
* :func:`brute_force_max_weight_stable_set` — an exponential reference used by
  the test suite to validate the two above on small graphs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import GraphError
from repro.graphs.chordal import perfect_elimination_order
from repro.graphs.graph import Graph, Vertex


def is_stable_set(graph: Graph, vertices: Iterable[Vertex]) -> bool:
    """Return whether ``vertices`` are pairwise non-adjacent in ``graph``."""
    vs = list(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if graph.has_edge(u, v):
                return False
    return True


def maximum_weighted_stable_set(
    graph: Graph,
    weights: Optional[Dict[Vertex, float]] = None,
    peo: Optional[Sequence[Vertex]] = None,
    candidates: Optional[Iterable[Vertex]] = None,
) -> List[Vertex]:
    """Compute a maximum weighted stable set of a chordal graph.

    This is the paper's Algorithm 1 (Frank's algorithm).  The two phases are:

    1. *Marking (red)*: walk the vertices in PEO order; whenever the residual
       weight of the current vertex is positive, mark it and subtract its
       residual weight from the residual weights of its not-yet-processed
       neighbours (clamping at zero).
    2. *Selection (blue)*: walk the marked vertices in reverse marking order,
       greedily keeping each one that is not adjacent to an already kept
       vertex.

    ``weights`` overrides the graph's vertex weights (used by the biased
    layered allocator, which searches with biased weights while accounting
    costs with the original ones).  Vertices with weight ``0`` never enter the
    result, matching the paper: allocating a never-accessed value cannot
    reduce the spill cost.

    ``candidates`` restricts the search to the induced subgraph on a vertex
    subset *without materializing it*: the PEO walk and the neighbour updates
    simply skip non-candidates.  Because an induced subgraph of a chordal
    graph is chordal and the restriction of a PEO is still a PEO, a single
    ``peo`` of the full graph can be reused across many candidate masks —
    this is what keeps the layered allocator within the paper's
    ``O(R·(|V|+|E|))`` bound.  Entries of ``candidates`` absent from the
    graph are ignored (mirroring :meth:`Graph.subgraph`); ``weights`` only
    needs to cover the candidates.

    Raises :class:`~repro.errors.NotChordalError` when the graph is not
    chordal and no valid ``peo`` is supplied.
    """
    if len(graph) == 0:
        return []

    if candidates is None:
        cand: Set[Vertex] = set(graph.vertices())
    else:
        cand = {v for v in candidates if v in graph}
        if not cand:
            return []
    if peo is None:
        base = graph if len(cand) == len(graph) else graph.induced_view(cand)
        peo = perfect_elimination_order(base)
    if weights is None:
        weights = {v: graph.weight(v) for v in cand}
    else:
        missing = [v for v in cand if v not in weights]
        if missing:
            raise GraphError(f"weights missing for vertices: {missing!r}")

    from repro.graphs.dense import dense_frank, dense_rows_of

    if dense_rows_of(graph) is not None:
        # Bitmask fast path: identical marking order, residual updates and
        # reverse-marking selection, so the result (and its order) matches
        # the set-based walk below exactly.
        return dense_frank(graph, weights, peo, graph.mask_of(cand))

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


def greedy_weighted_stable_set(
    graph: Graph,
    candidates: Optional[Sequence[Vertex]] = None,
    weights: Optional[Dict[Vertex, float]] = None,
) -> List[Vertex]:
    """Greedy approximation of the maximum weighted stable set.

    Used by the layered *heuristic* on general interference graphs (inner
    while-loop of Algorithm 5): repeatedly take the heaviest remaining
    candidate and discard its neighbours.  The quality of the layered
    heuristic is directly the quality of this approximation.
    """
    if weights is None:
        weights = graph.weights()
    if candidates is None:
        candidates = graph.vertices()
    order = sorted(candidates, key=lambda v: (-weights[v], str(v)))
    chosen: List[Vertex] = []
    excluded: Set[Vertex] = set()
    for v in order:
        if v in excluded:
            continue
        chosen.append(v)
        excluded.add(v)
        excluded |= graph.neighbors(v)
    return chosen


def brute_force_max_weight_stable_set(
    graph: Graph, weights: Optional[Dict[Vertex, float]] = None
) -> List[Vertex]:
    """Exact maximum weighted stable set by exhaustive search.

    Only intended for the test suite (graphs of up to ~20 vertices); raises
    :class:`~repro.errors.GraphError` beyond that to avoid accidental blow-ups.
    """
    n = len(graph)
    if n > 22:
        raise GraphError(f"brute force limited to 22 vertices, got {n}")
    if weights is None:
        weights = graph.weights()
    vertices = graph.vertices()
    best: List[Vertex] = []
    best_weight = 0.0
    for size in range(n, 0, -1):
        for subset in combinations(vertices, size):
            if is_stable_set(graph, subset):
                w = sum(weights[v] for v in subset)
                if w > best_weight:
                    best_weight = w
                    best = list(subset)
    return best


def stable_set_weight(graph: Graph, vertices: Iterable[Vertex]) -> float:
    """Return the total weight of ``vertices`` using the graph's weights."""
    return sum(graph.weight(v) for v in vertices)
