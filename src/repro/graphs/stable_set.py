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
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

from repro.errors import GraphError
from repro.graphs.chordal import perfect_elimination_order
from repro.graphs.graph import Graph, Vertex, bit_indices


def is_stable_set(graph: Graph, vertices: Iterable[Vertex]) -> bool:
    """Return whether ``vertices`` are pairwise non-adjacent in ``graph``."""
    vs = list(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if graph.has_edge(u, v):
                return False
    return True


class FrankOrder(NamedTuple):
    """The PEO-derived half of Frank's walk on one :class:`Graph`.

    It depends only on the graph's rows and the PEO's contents, so
    :func:`frank_order` builds it once per (graph, PEO) and every layer —
    and, through the problem's shared PEO, every register count of a
    sweep — reuses it.
    """

    #: bit indices of the PEO's vertices, in PEO order (vertices the graph
    #: does not hold are skipped).
    bits: List[int]
    #: mask of every vertex the PEO lists.
    covered: int
    #: per bit index: the vertex's neighbours that come later in the PEO.
    later_neighbours: List[int]


def frank_order(graph: Graph, peo: Sequence[Vertex]) -> FrankOrder:
    """``graph``'s :class:`FrankOrder` for ``peo``, cached on the graph.

    The cache is keyed by the PEO's contents, not by the object: a PEO
    with other contents (a different list, or the same list mutated) gets
    its own setup, never a stale one.  A structural mutation of the graph
    drops it.
    """
    key = tuple(peo)
    cached = graph._frank_order
    if cached is None or cached[0] != key:
        cached = graph._frank_order = (key, build_frank_order(graph, key))
    return cached[1]


def build_frank_order(graph: Graph, peo: Sequence[Vertex]) -> FrankOrder:
    """Build the :class:`FrankOrder` of ``peo`` (one reverse walk)."""
    rows = graph.rows()
    index = graph._index
    bits = [b for b in (index.get(v) for v in peo) if b is not None]
    later_neighbours = [0] * len(rows)
    later = 0
    for b in reversed(bits):
        later_neighbours[b] = rows[b] & later
        later |= 1 << b
    return FrankOrder(bits, later, later_neighbours)


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
    subset *without materializing it*: the candidates become a mask, and the
    PEO walk and the neighbour updates skip non-candidates.  Because an
    induced subgraph of a chordal graph is chordal and the restriction of a
    PEO is still a PEO, a single ``peo`` of the full graph can be reused
    across many candidate masks — this is what keeps the layered allocator
    within the paper's ``O(R·(|V|+|E|))`` bound.  The PEO's setup (its bit
    list, coverage mask and later-neighbour masks) is cached on the graph
    per PEO (:func:`frank_order`).  Entries of ``candidates`` absent from
    the graph are ignored (mirroring :meth:`Graph.subgraph`); ``weights``
    only needs to cover the candidates.  Without a ``peo`` the search takes
    the PEO of the candidates' induced subgraph.

    Raises :class:`~repro.errors.NotChordalError` when the graph is not
    chordal and no valid ``peo`` is supplied.
    """
    if len(graph) == 0:
        return []
    candidates_mask = (1 << len(graph)) - 1 if candidates is None else graph.mask_of(candidates)
    if not candidates_mask:
        return []
    if peo is None:
        whole = candidates_mask.bit_count() == len(graph)
        peo = perfect_elimination_order(graph if whole else graph.subgraph(graph.vertices_in(candidates_mask)))
    rows = graph.rows()
    order = graph._order
    setup = frank_order(graph, peo)
    if weights is None:
        weights = graph._weights

    residual = [0.0] * len(rows)
    missing_weights: List[Vertex] = []
    for i in bit_indices(candidates_mask):
        try:
            residual[i] = float(weights[order[i]])
        except KeyError:
            missing_weights.append(order[i])
    if missing_weights:
        raise GraphError(f"weights missing for vertices: {missing_weights!r}")
    missing = candidates_mask & ~setup.covered
    if missing:
        raise GraphError(f"peo missing candidate vertices: {graph.vertices_in(missing)!r}")

    # Marking phase: vertices with positive residual, in PEO order; each
    # marked vertex's residual is subtracted (clamped at zero) from its
    # not-yet-processed candidate neighbours.  Non-candidates keep residual
    # zero, so the positivity test also skips them.  ``positive`` prunes
    # neighbour extraction to vertices whose residual can still change: a
    # residual at zero stays at zero under the max(0, r - amount) update.
    later_neighbours = setup.later_neighbours
    marked: List[int] = []
    positive = candidates_mask
    for v in setup.bits:
        amount = residual[v]
        if amount <= 0:
            continue
        marked.append(v)
        for u in bit_indices(later_neighbours[v] & positive):
            x = residual[u] - amount
            if x > 0.0:
                residual[u] = x
            else:
                residual[u] = 0.0
                positive ^= 1 << u
        residual[v] = 0.0
        positive &= ~(1 << v)

    # Selection phase: reverse marking order, keep what is non-adjacent to
    # the kept set.
    chosen: List[Vertex] = []
    chosen_mask = 0
    for v in reversed(marked):
        if not (rows[v] & chosen_mask):
            chosen.append(order[v])
            chosen_mask |= 1 << v
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
