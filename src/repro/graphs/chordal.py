"""Chordality tests and perfect elimination orders.

The key structural fact exploited by the paper is that interference graphs of
SSA programs are chordal (intersection graphs of subtrees of the dominance
tree).  Chordal graphs admit a *perfect elimination order* (PEO): an ordering
``v1, ..., vn`` such that every ``vi`` is simplicial (its neighbourhood is a
clique) in the subgraph induced by ``{vi, ..., vn}``.

Two classical linear-time orderings are provided:

* :func:`maximum_cardinality_search` (MCS, Tarjan & Yannakakis 1984);
* :func:`lex_bfs` (lexicographic breadth-first search, Rose/Tarjan/Lueker).

For a chordal graph, the *reverse* of either visit order is a PEO;
:func:`is_perfect_elimination_order` verifies candidate orders and doubles as
the chordality test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import GraphError, NotChordalError
from repro.graphs.graph import Graph, Vertex


def maximum_cardinality_search(graph: Graph, start: Optional[Vertex] = None) -> List[Vertex]:
    """Return the MCS visit order of ``graph``.

    The search repeatedly picks the unvisited vertex with the most visited
    neighbours, ties to the lowest insertion index, ``start`` first when
    given.  For chordal graphs, reversing this order yields a perfect
    elimination order.

    It runs on the adjacency rows with bucket masks: ``buckets[c]`` is the
    mask of unvisited vertices with ``c`` visited neighbours, so a visit
    takes the lowest set bit of the highest non-empty bucket and then moves
    the vertex's unvisited neighbours up one bucket with one AND/XOR per
    bucket they occupy, from the top bucket down.
    """
    rows = graph.rows()
    n = len(rows)
    if n == 0:
        return []
    if start is not None and start not in graph:
        raise GraphError(f"unknown start vertex {start!r}")
    unvisited = (1 << n) - 1
    buckets = [unvisited]
    top = 0
    first = None if start is None else graph.index_of(start)
    order_out: List[int] = []
    for _ in range(n):
        if first is None:
            bucket = buckets[top]
            v = (bucket & -bucket).bit_length() - 1
        else:
            v, first = first, None  # every count is still 0: start is in buckets[0]
        bit = 1 << v
        buckets[top] ^= bit
        unvisited ^= bit
        order_out.append(v)
        rising = rows[v] & unvisited
        if rising:
            if top + 1 == len(buckets):
                buckets.append(0)
            count = top
            while rising:
                moved = buckets[count] & rising
                if moved:
                    buckets[count] ^= moved
                    buckets[count + 1] |= moved
                    rising ^= moved
                count -= 1
            if buckets[top + 1]:
                top += 1
        while top and not buckets[top]:
            top -= 1
    order = graph.vertices()
    return [order[i] for i in order_out]


class _Block:
    """One block of the lex-BFS partition: an ordered set in a linked list."""

    __slots__ = ("members", "prev", "next", "split")

    def __init__(self) -> None:
        # Dicts preserve insertion order and give O(1) removal, so a block is
        # an ordered set: keys are the member vertices, values unused.
        self.members: Dict[Vertex, None] = {}
        self.prev: Optional["_Block"] = None
        self.next: Optional["_Block"] = None
        #: block receiving this block's pivot-neighbours during the current
        #: refinement step (reset after each pivot).
        self.split: Optional["_Block"] = None


def lex_bfs(graph: Graph, start: Optional[Vertex] = None) -> List[Vertex]:
    """Return a lexicographic BFS visit order of ``graph``.

    Implemented with the classical partition-refinement scheme: maintain an
    ordered list of vertex blocks; repeatedly take the first vertex of the
    first block, then move that vertex's neighbours to the front of their
    respective blocks (splitting each touched block in two, neighbours
    first).

    Only the pivot's neighbours are touched per step — blocks are kept in a
    doubly-linked list with O(1) membership moves — so the whole traversal is
    ``O(|V| + |E|)`` instead of the quadratic full-partition rebuild.  Ties
    are broken by graph insertion order (``start`` first when given), which
    keeps the order deterministic.
    """
    if len(graph) == 0:
        return []
    vertices = graph.vertices()
    if start is not None:
        if start not in graph:
            raise GraphError(f"unknown start vertex {start!r}")
        vertices = [start] + [v for v in vertices if v != start]

    # Process each pivot's neighbours in tie-break (insertion) order so the
    # split blocks' internal order — hence the final order — is deterministic.
    sorted_adj: Dict[Vertex, List[Vertex]] = {v: [] for v in vertices}
    for v in vertices:  # bucket pass: emits every adjacency list rank-sorted
        for u in graph.neighbors(v):
            sorted_adj[u].append(v)

    head = _Block()
    head.members = dict.fromkeys(vertices)
    block_of: Dict[Vertex, _Block] = {v: head for v in vertices}

    order: List[Vertex] = []
    while head is not None:
        v = next(iter(head.members))
        del head.members[v]
        del block_of[v]
        order.append(v)
        if not head.members:
            head = head.next
            if head is not None:
                head.prev = None

        touched: List[_Block] = []
        for u in sorted_adj[v]:
            block = block_of.get(u)
            if block is None:
                continue  # u already visited
            if block.split is None:
                # Open the receiving block immediately before ``block``.
                receiver = _Block()
                receiver.prev = block.prev
                receiver.next = block
                if block.prev is not None:
                    block.prev.next = receiver
                else:
                    head = receiver
                block.prev = receiver
                block.split = receiver
                touched.append(block)
            block.split.members[u] = None
            del block.members[u]
            block_of[u] = block.split

        for block in touched:
            block.split = None
            if not block.members:  # every member was a neighbour: drop shell
                receiver = block.prev
                receiver.next = block.next
                if block.next is not None:
                    block.next.prev = receiver
    return order


def is_perfect_elimination_order(graph: Graph, order: Sequence[Vertex]) -> bool:
    """Check whether ``order`` is a perfect elimination order of ``graph``.

    For each vertex ``v`` it suffices to check that the *earliest* later
    neighbour of ``v`` (its pivot) is adjacent to every other later
    neighbour of ``v`` (Golumbic 2004, Thm. 4.5).  On the rows, the pivot is
    found by binary search over the suffix masks of the order (the largest
    position whose suffix still holds every later neighbour), and "every
    other later neighbour is adjacent to the pivot" is one AND-NOT against
    the pivot's row.  The suffix masks take about ``n²/8`` bytes for the
    call only.
    """
    rows = graph.rows()
    n = len(rows)
    if len(order) != n:
        return False
    index = graph._index
    try:
        peo_bits = [index[v] for v in order]
    except (KeyError, TypeError):
        return False
    if len(set(peo_bits)) != n:
        return False
    # suffix[p]: the vertices at positions >= p of the order.
    suffix = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        suffix[p] = suffix[p + 1] | (1 << peo_bits[p])
    for p, v in enumerate(peo_bits):
        later = rows[v] & suffix[p + 1]
        if not later:
            continue
        lo, hi = p + 1, n  # later <= suffix[lo]; not later <= suffix[hi]
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if later & suffix[mid] == later:
                lo = mid
            else:
                hi = mid
        pivot = peo_bits[lo]
        if (later ^ (1 << pivot)) & ~rows[pivot]:
            return False
    return True


def perfect_elimination_order(graph: Graph) -> List[Vertex]:
    """Return a perfect elimination order of a chordal ``graph``.

    Raises :class:`~repro.errors.NotChordalError` if the graph is not chordal.
    """
    order = list(reversed(maximum_cardinality_search(graph)))
    if not is_perfect_elimination_order(graph, order):
        raise NotChordalError("graph is not chordal: no perfect elimination order exists")
    return order


def is_chordal(graph: Graph) -> bool:
    """Return whether ``graph`` is chordal (every cycle ≥ 4 has a chord)."""
    order = list(reversed(maximum_cardinality_search(graph)))
    return is_perfect_elimination_order(graph, order)


def simplicial_vertices(graph: Graph) -> List[Vertex]:
    """Return all simplicial vertices (neighbourhood is a clique)."""
    return [v for v in graph if graph.is_clique(graph.neighbors(v))]
