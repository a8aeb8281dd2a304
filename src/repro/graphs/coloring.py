"""Graph colorings used for register assignment and verification.

In the decoupled approach the *assignment* phase is easy: a chordal graph with
clique number ``ω`` is colorable with exactly ``ω`` colors by a greedy scan of
the reverse perfect elimination order (the "tree-scan" of Colombet et al.).
These routines are used to (a) turn an allocation into an actual register
assignment and (b) verify that the allocated sub-graph is R-colorable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import GraphError
from repro.graphs.chordal import perfect_elimination_order
from repro.graphs.graph import Graph, Vertex

Coloring = Dict[Vertex, int]


def greedy_coloring(graph: Graph, order: Optional[Sequence[Vertex]] = None) -> Coloring:
    """Color ``graph`` greedily in ``order`` with the lowest available color.

    When no order is given the vertices are taken in descending degree, a
    common heuristic for general graphs.  The result is a proper coloring;
    the number of distinct colors depends on the order.
    """
    if order is None:
        order = sorted(graph.vertices(), key=lambda v: -graph.degree(v))
    elif set(order) != set(graph.vertices()):
        raise GraphError("coloring order must cover exactly the graph's vertices")
    return _greedy_along(graph, order)


def _greedy_along(graph: Graph, order: Iterable[Vertex]) -> Coloring:
    """Give each vertex of ``order`` in turn the lowest colour none of its
    already-coloured neighbours holds (neighbours outside ``order`` never are)."""
    colors: Coloring = {}
    for v in order:
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        color = 0
        while color in used:
            color += 1
        colors[v] = color
    return colors


def chordal_coloring(graph: Graph, peo: Optional[Sequence[Vertex]] = None) -> Coloring:
    """Optimally color a chordal graph.

    Greedy coloring along the *reverse* of a perfect elimination order uses
    exactly ``ω(G)`` colors (the clique number), which is optimal.
    """
    if len(graph) == 0:
        return {}
    if peo is None:
        peo = perfect_elimination_order(graph)
    return greedy_coloring(graph, list(reversed(peo)))


def chromatic_number_chordal(graph: Graph, peo: Optional[Sequence[Vertex]] = None) -> int:
    """Return the chromatic number (= clique number) of a chordal graph."""
    coloring = chordal_coloring(graph, peo)
    return (max(coloring.values()) + 1) if coloring else 0


# ---------------------------------------------------------------------- #
# induced subgraphs by PEO restriction
# ---------------------------------------------------------------------- #
# A PEO of G restricted to a vertex set S is a PEO of G[S] (Rose, Tarjan &
# Lueker 1976).  So one elimination order of the whole graph answers the
# colouring and clique-number queries about every induced subgraph, with no
# subgraph copy and no new search.  Vertices of ``members`` outside ``peo``
# are ignored, as :meth:`Graph.subgraph` ignores unknown vertices.
def restricted_coloring(
    graph: Graph, peo: Sequence[Vertex], members: Iterable[Vertex]
) -> Coloring:
    """Tree-scan of ``graph[members]``: greedy along ``reversed(peo)``.

    With ``peo`` a PEO of ``graph`` this colours the induced subgraph with
    exactly its clique number of colours.  One mask per colour holds the
    members coloured with it so far; a member takes the lowest colour whose
    mask misses its row.
    """
    keep = set(members)
    rows = graph.rows()
    index = graph._index
    classes: List[int] = []
    coloring: Coloring = {}
    for v in reversed(peo):
        if v not in keep:
            continue
        i = index[v]
        row = rows[i]
        for color, mask in enumerate(classes):
            if not row & mask:
                classes[color] = mask | (1 << i)
                break
        else:
            color = len(classes)
            classes.append(1 << i)
        coloring[v] = color
    return coloring


def restricted_clique_number(
    graph: Graph, peo: Sequence[Vertex], members: Iterable[Vertex]
) -> int:
    """ω of ``graph[members]`` for a PEO ``peo`` of ``graph``.

    Every member with its later members in the order forms a clique, and
    every maximal clique is one of these, so ω is the largest
    ``1 + |row(v) & later members|``.
    """
    keep = set(members)
    rows = graph.rows()
    index = graph._index
    later = 0
    omega = 0
    for v in reversed(peo):
        if v not in keep:
            continue
        i = index[v]
        size = (rows[i] & later).bit_count() + 1
        if size > omega:
            omega = size
        later |= 1 << i
    return omega


def is_valid_coloring(graph: Graph, coloring: Coloring, num_colors: Optional[int] = None) -> bool:
    """Check a coloring: every vertex colored, adjacent vertices differ.

    When ``num_colors`` is given, also check that every color is in
    ``range(num_colors)`` — i.e. the assignment fits in the register file.
    """
    for v in graph:
        if v not in coloring:
            return False
        if num_colors is not None and not (0 <= coloring[v] < num_colors):
            return False
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            return False
    return True


def color_classes(coloring: Coloring) -> List[List[Vertex]]:
    """Group vertices by color, ordered by color index."""
    if not coloring:
        return []
    classes: List[List[Vertex]] = [[] for _ in range(max(coloring.values()) + 1)]
    for v, c in coloring.items():
        classes[c].append(v)
    return classes
