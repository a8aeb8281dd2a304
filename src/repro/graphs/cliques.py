"""Maximal clique enumeration.

On chordal interference graphs there is a perfect correspondence between
maximal cliques and sets of variables simultaneously live at some program
point (Hack 2006), and a chordal graph on ``n`` vertices has at most ``n``
maximal cliques, enumerable from any perfect elimination order.  The
fixed-point layered allocator (Algorithm 3/4 in the paper) tracks, for every
maximal clique, how many of its members have already been allocated.

For general (non-chordal) graphs used in the SPEC JVM98-style evaluation we
fall back to Bron–Kerbosch with pivoting.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set

from repro.graphs.chordal import is_perfect_elimination_order, maximum_cardinality_search
from repro.graphs.graph import Graph, Vertex

Clique = FrozenSet[Vertex]


def maximal_cliques_chordal(graph: Graph, peo: Sequence[Vertex] | None = None) -> List[Clique]:
    """Enumerate the maximal cliques of a chordal graph.

    For each vertex ``v`` in a PEO, ``{v} ∪ later-neighbours(v)`` is a clique
    (one AND of ``v``'s row with the mask of the vertices after it); the
    maximal cliques are exactly the candidates not strictly contained in
    another candidate.  The containment filter below is quadratic in the
    number of candidates but linear in practice because each vertex belongs to
    few candidates.
    """
    if len(graph) == 0:
        return []
    if peo is None:
        peo = list(reversed(maximum_cardinality_search(graph)))
    rows = graph.rows()
    index = graph._index
    candidates: List[Set[Vertex]] = []
    later = 0
    for v in reversed(peo):
        i = index[v]
        candidates.append(set(graph.vertices_in((1 << i) | (rows[i] & later))))
        later |= 1 << i
    candidates.reverse()
    # Keep only candidates not strictly contained in another candidate.
    candidates.sort(key=len, reverse=True)
    maximal: List[Clique] = []
    for cand in candidates:
        if any(cand < other for other in maximal):
            continue
        frozen = frozenset(cand)
        if frozen not in maximal:
            maximal.append(frozen)
    # A candidate equal to another should appear once; filter duplicates while
    # preserving order.
    seen: Set[Clique] = set()
    unique: List[Clique] = []
    for c in maximal:
        if c not in seen:
            seen.add(c)
            unique.append(c)
    return unique


def maximal_cliques_general(graph: Graph) -> List[Clique]:
    """Enumerate maximal cliques with Bron–Kerbosch (pivoting variant).

    Worst case exponential, but interference graphs are sparse and the
    layered-heuristic evaluation only needs this on moderate graphs.
    """
    if len(graph) == 0:
        return []
    cliques: List[Clique] = []

    def expand(r: Set[Vertex], p: Set[Vertex], x: Set[Vertex]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        # Choose the pivot with the most neighbours in p to minimise branching.
        pivot = max(p | x, key=lambda u: len(graph.neighbors(u) & p))
        for v in list(p - graph.neighbors(pivot)):
            nbrs = graph.neighbors(v)
            expand(r | {v}, p & nbrs, x & nbrs)
            p.remove(v)
            x.add(v)

    expand(set(), set(graph.vertices()), set())
    return cliques


def maximal_cliques(graph: Graph) -> List[Clique]:
    """Enumerate maximal cliques, dispatching on chordality.

    Chordal graphs use the linear PEO-based enumeration; others fall back to
    Bron–Kerbosch.
    """
    order = list(reversed(maximum_cardinality_search(graph)))
    if is_perfect_elimination_order(graph, order):
        return maximal_cliques_chordal(graph, order)
    return maximal_cliques_general(graph)


def maximum_clique_size(graph: Graph) -> int:
    """Return the size of a maximum clique (the clique number ω)."""
    cliques = maximal_cliques(graph)
    return max((len(c) for c in cliques), default=0)


def cliques_containing(cliques: Sequence[Clique], vertex: Vertex) -> List[Clique]:
    """Return the cliques from ``cliques`` that contain ``vertex``."""
    return [c for c in cliques if vertex in c]
