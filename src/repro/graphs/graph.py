"""A small weighted undirected graph.

The allocators in :mod:`repro.alloc` consume *interference graphs*: vertices
are program variables, edges mean "simultaneously live somewhere", and the
vertex weight is the estimated spill cost of the variable.  This module keeps
the representation deliberately simple — adjacency sets over hashable vertex
identifiers — so the graph algorithms stay readable and match the pseudo-code
in the paper.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

from repro.errors import GraphError

Vertex = Hashable


def checked_weight(v: Vertex, weight: float) -> float:
    """``weight`` as a float, or :class:`GraphError` unless it is a valid spill cost.

    Spill costs are access frequencies: negative weights are rejected, and so
    is NaN, which compares false with everything and so passes ``weight < 0``.
    Infinite weights stay valid.
    """
    if weight < 0:
        raise GraphError(f"vertex {v!r} has negative weight {weight}")
    if weight != weight:
        raise GraphError(f"vertex {v!r} has NaN weight")
    return float(weight)


class Graph:
    """An undirected graph with non-negative vertex weights.

    Vertices may be any hashable value (the library uses strings for variable
    names).  Self-loops are rejected; parallel edges collapse into one.

    Example
    -------
    >>> g = Graph()
    >>> g.add_vertex("a", weight=2.0)
    >>> g.add_vertex("b", weight=5.0)
    >>> g.add_edge("a", "b")
    >>> sorted(g.neighbors("a"))
    ['b']
    >>> g.weight("b")
    5.0
    """

    __slots__ = ("_adj", "_weights", "_mutations")

    def __init__(self) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._weights: Dict[Vertex, float] = {}
        self._mutations: int = 0

    @property
    def mutation_stamp(self) -> int:
        """Monotonic counter bumped by every mutating operation.

        Consumers that cache structures derived from the graph (PEO, maximal
        cliques, digests — see :class:`repro.alloc.problem.AllocationProblem`)
        snapshot this stamp when they fill their cache and invalidate when it
        moves, so mutating a graph after derivation cannot serve stale data.
        """
        return self._mutations

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex, weight: float = 1.0) -> None:
        """Add vertex ``v`` with the given spill-cost ``weight``.

        Adding an existing vertex updates its weight but keeps its edges.
        Negative and NaN weights are rejected (see :func:`checked_weight`).
        """
        weight = checked_weight(v, weight)
        if v not in self._adj:
            self._adj[v] = set()
        self._weights[v] = weight
        self._mutations += 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``; endpoints are created lazily."""
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        if u not in self._adj:
            self.add_vertex(u)
        if v not in self._adj:
            self.add_vertex(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._mutations += 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges."""
        if v not in self._adj:
            raise GraphError(f"unknown vertex {v!r}")
        for u in self._adj[v]:
            self._adj[u].discard(v)
        del self._adj[v]
        del self._weights[v]
        self._mutations += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)`` if present."""
        if u not in self._adj or v not in self._adj:
            raise GraphError(f"unknown endpoint in edge ({u!r}, {v!r})")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._mutations += 1

    def set_weight(self, v: Vertex, weight: float) -> None:
        """Update the weight of an existing vertex."""
        if v not in self._weights:
            raise GraphError(f"unknown vertex {v!r}")
        self._weights[v] = checked_weight(v, weight)
        self._mutations += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def vertices(self) -> List[Vertex]:
        """Return the vertices in insertion order."""
        return list(self._adj)

    def edges(self) -> List[Tuple[Vertex, Vertex]]:
        """Return each undirected edge exactly once."""
        seen: Set[Tuple[int, int]] = set()
        result: List[Tuple[Vertex, Vertex]] = []
        index = {v: i for i, v in enumerate(self._adj)}
        for u in self._adj:
            for v in self._adj[u]:
                key = (index[u], index[v]) if index[u] < index[v] else (index[v], index[u])
                if key not in seen:
                    seen.add(key)
                    result.append((u, v) if index[u] < index[v] else (v, u))
        return result

    def num_edges(self) -> int:
        """Return the number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """Return the adjacency set of ``v`` (do not mutate it)."""
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def degree(self, v: Vertex) -> int:
        """Return the number of neighbours of ``v``."""
        return len(self.neighbors(v))

    def weight(self, v: Vertex) -> float:
        """Return the spill-cost weight of ``v``."""
        try:
            return self._weights[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def weights(self) -> Dict[Vertex, float]:
        """Return a copy of the weight map."""
        return dict(self._weights)

    def total_weight(self, vertices: Iterable[Vertex] | None = None) -> float:
        """Return the summed weight of ``vertices`` (all vertices if omitted)."""
        if vertices is None:
            return sum(self._weights.values())
        return sum(self.weight(v) for v in vertices)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return whether ``u`` and ``v`` interfere."""
        return u in self._adj and v in self._adj[u]

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        g = Graph()
        for v, w in self._weights.items():
            g.add_vertex(v, w)
        for u in self._adj:
            for v in self._adj[u]:
                g._adj[u].add(v)
        return g

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """Return the induced subgraph on ``keep`` (unknown vertices ignored)."""
        keep_set = {v for v in keep if v in self._adj}
        g = Graph()
        for v in self._adj:
            if v in keep_set:
                g.add_vertex(v, self._weights[v])
        for v in g.vertices():
            for u in self._adj[v]:
                if u in keep_set:
                    g._adj[v].add(u)
        return g

    def without(self, drop: Iterable[Vertex]) -> "Graph":
        """Return the induced subgraph with ``drop`` removed."""
        drop_set = set(drop)
        return self.subgraph(v for v in self._adj if v not in drop_set)

    def induced_view(self, keep: Iterable[Vertex]) -> "GraphView":
        """Return a read-only *view* of the induced subgraph on ``keep``.

        Unlike :meth:`subgraph`, no adjacency sets are copied: the view keeps
        a reference to this graph plus the membership mask and filters lazily.
        Building a view is ``O(|keep|)``; every query pays at most the degree
        of the queried vertex.  This is what lets the layered allocators run a
        round over the remaining candidates without materializing a fresh
        graph per round.  Unknown vertices in ``keep`` are ignored, matching
        :meth:`subgraph`.  The view reflects later mutations of the base
        graph; do not mutate the base while holding a view.
        """
        return GraphView(self, keep)

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """Return whether ``vertices`` are pairwise adjacent."""
        vs = list(vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if not self.has_edge(u, v):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={len(self)}, |E|={self.num_edges()})"

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex]],
        weights: Dict[Vertex, float] | None = None,
        isolated: Iterable[Vertex] = (),
    ) -> "Graph":
        """Build a graph from an edge list plus optional weights.

        ``isolated`` lists vertices with no incident edge so they still
        participate in the allocation problem.
        """
        g = cls()
        weights = weights or {}
        for v in isolated:
            g.add_vertex(v, weights.get(v, 1.0))
        for u, v in edges:
            g.add_edge(u, v)
        for v, w in weights.items():
            if v not in g:
                g.add_vertex(v, w)
            else:
                g.set_weight(v, w)
        return g


class GraphView:
    """A read-only induced-subgraph view sharing the base graph's storage.

    Implements the query surface of :class:`Graph` (membership, iteration,
    ``neighbors``, weights, ``has_edge``, ...) restricted to a vertex mask,
    so graph algorithms written against :class:`Graph` — MCS, lex-BFS, PEO
    validation, Frank's algorithm — run on the view unchanged and without
    the ``O(|V|+|E|)`` copy that :meth:`Graph.subgraph` pays.

    ``neighbors`` builds the filtered adjacency set on demand (``O(deg)``);
    callers that only need membership tests should prefer ``has_edge``.
    """

    __slots__ = ("_base", "_keep")

    def __init__(self, base: Graph, keep: Iterable[Vertex]) -> None:
        self._base = base
        self._keep: Set[Vertex] = {v for v in keep if v in base}

    # -- queries (mirror Graph's read API) ----------------------------- #
    def __contains__(self, v: Vertex) -> bool:
        return v in self._keep

    def __len__(self) -> int:
        return len(self._keep)

    def __iter__(self) -> Iterator[Vertex]:
        # Preserve the base graph's insertion order, like Graph.subgraph.
        return (v for v in self._base if v in self._keep)

    def vertices(self) -> List[Vertex]:
        """Return the kept vertices in base-graph insertion order."""
        return [v for v in self._base if v in self._keep]

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """Return the kept neighbours of ``v`` (a fresh set, O(deg))."""
        if v not in self._keep:
            raise GraphError(f"unknown vertex {v!r}")
        return self._base.neighbors(v) & self._keep

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def weight(self, v: Vertex) -> float:
        if v not in self._keep:
            raise GraphError(f"unknown vertex {v!r}")
        return self._base.weight(v)

    def weights(self) -> Dict[Vertex, float]:
        return {v: self._base.weight(v) for v in self.vertices()}

    def total_weight(self, vertices: Iterable[Vertex] | None = None) -> float:
        if vertices is None:
            vertices = self._keep
        return sum(self.weight(v) for v in vertices)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._keep and v in self._keep and self._base.has_edge(u, v)

    def num_edges(self) -> int:
        return sum(len(self.neighbors(v)) for v in self._keep) // 2

    def edges(self) -> List[Tuple[Vertex, Vertex]]:
        index = {v: i for i, v in enumerate(self.vertices())}
        result: List[Tuple[Vertex, Vertex]] = []
        for u in self.vertices():
            for v in self.neighbors(u):
                if index[u] < index[v]:
                    result.append((u, v))
        return result

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        vs = list(vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if not self.has_edge(u, v):
                    return False
        return True

    def materialize(self) -> Graph:
        """Copy the view into a standalone :class:`Graph`."""
        return self._base.subgraph(self._keep)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphView(|V|={len(self)} of {len(self._base)})"
