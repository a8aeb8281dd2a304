"""Weighted undirected interference graphs, stored as adjacency bitmask rows.

The allocators in :mod:`repro.alloc` consume *interference graphs*: vertices
are program variables, edges mean "simultaneously live somewhere", and the
vertex weight is the estimated spill cost of the variable.

A :class:`Graph` keeps its vertices in insertion order and one arbitrary-width
Python integer per vertex: bit ``j`` of row ``i`` is set iff vertex ``i`` and
vertex ``j`` interfere.  The chordal kernels (maximum cardinality search, the
PEO check, Frank's algorithm, clique enumeration, colouring by PEO
restriction), the graph digest and the GC index work on the rows with mask
arithmetic.  Adjacency *sets* exist only as a cache behind
:meth:`Graph.neighbors`, built from a vertex's row the first time it is read,
for the code that walks neighbourhoods (Bron–Kerbosch, greedy colouring,
lex-BFS, the layered heuristic).

Mutation contract: every mutation edits the rows in place.  ``add_vertex``
appends a zero row, ``add_edge`` and ``remove_edge`` set or clear two bits,
``remove_vertex`` drops its row and shifts the higher bits of every row down
one place, and ``set_weight`` leaves the rows alone.  Structural mutations
keep the cached adjacency sets consistent and drop the Frank setup cached for
the last PEO; every mutation bumps :attr:`Graph.mutation_stamp`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import GraphError

if TYPE_CHECKING:
    from repro.graphs.stable_set import FrankOrder

Vertex = Hashable

#: Bit-extraction chunk width.  Extraction jumps to the lowest set bit,
#: word-aligns, and peels one ``_CHUNK``-bit window at a time, so sparse
#: high-offset masks (the common shape: SSA live ranges cluster) cost
#: O(set bits) small-int operations plus a few big-int slices.
_CHUNK = 512
_CHUNK_MASK = (1 << _CHUNK) - 1


def bit_indices(mask: int) -> List[int]:
    """Return the indices of the set bits of ``mask``, ascending."""
    out: List[int] = []
    append = out.append
    while mask:
        base = ((mask & -mask).bit_length() - 1) & -_CHUNK
        word = (mask >> base) & _CHUNK_MASK
        mask ^= word << base
        while word:
            lsb = word & -word
            append(base + lsb.bit_length() - 1)
            word ^= lsb
    return out


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
    Vertex ``i`` (in insertion order) owns bit ``i`` of every adjacency row.

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

    __slots__ = ("_order", "_index", "_rows", "_weights", "_sets", "_mutations", "_frank_order")

    def __init__(self) -> None:
        #: vertices in insertion order (bit index -> vertex) and the reverse map.
        self._order: List[Vertex] = []
        self._index: Dict[Vertex, int] = {}
        #: ``_rows[i]``: the mask of vertex ``i``'s neighbours.
        self._rows: List[int] = []
        self._weights: Dict[Vertex, float] = {}
        #: adjacency sets of the vertices :meth:`neighbors` has read so far.
        self._sets: Dict[Vertex, Set[Vertex]] = {}
        self._mutations: int = 0
        #: (PEO contents, FrankOrder) of the last PEO Frank's walk used.
        self._frank_order: Optional[Tuple[Tuple[Vertex, ...], "FrankOrder"]] = None

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
    @classmethod
    def from_rows(
        cls,
        vertex_order: Sequence[Vertex],
        rows: Sequence[int],
        weights: Sequence[float],
    ) -> "Graph":
        """Adopt prebuilt adjacency rows; vertex ``i`` is ``vertex_order[i]``.

        Rows must be symmetric with a zero diagonal: the builders guarantee
        it, and the interference-graph lint (IGR001, IGR002) reports rows
        that break it.
        """
        if not (len(vertex_order) == len(rows) == len(weights)):
            raise GraphError(
                f"mismatched graph inputs: {len(vertex_order)} vertices, "
                f"{len(rows)} rows, {len(weights)} weights"
            )
        g = cls()
        g._order = list(vertex_order)
        g._index = {v: i for i, v in enumerate(g._order)}
        if len(g._index) != len(g._order):
            raise GraphError("duplicate vertices in graph order")
        g._rows = list(rows)
        for v, w in zip(g._order, weights):
            g._weights[v] = checked_weight(v, w)
        g._mutations = 1
        return g

    @classmethod
    def from_graph(cls, graph: "Graph") -> "Graph":
        """``graph.copy()``, under the name ``DenseGraph.from_graph`` callers use."""
        return graph.copy()

    def add_vertex(self, v: Vertex, weight: float = 1.0) -> None:
        """Add vertex ``v`` with the given spill-cost ``weight``.

        Adding an existing vertex updates its weight but keeps its edges.
        Negative and NaN weights are rejected (see :func:`checked_weight`).
        """
        weight = checked_weight(v, weight)
        if v not in self._index:
            self._index[v] = len(self._order)
            self._order.append(v)
            self._rows.append(0)
            self._frank_order = None
        self._weights[v] = weight
        self._mutations += 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``; endpoints are created lazily."""
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        if u not in self._index:
            self.add_vertex(u)
        if v not in self._index:
            self.add_vertex(v)
        i, j = self._index[u], self._index[v]
        self._rows[i] |= 1 << j
        self._rows[j] |= 1 << i
        if u in self._sets:
            self._sets[u].add(v)
        if v in self._sets:
            self._sets[v].add(u)
        self._structure_changed()

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges."""
        i = self._index.get(v)
        if i is None:
            raise GraphError(f"unknown vertex {v!r}")
        order = self._order
        for j in bit_indices(self._rows[i]):
            if order[j] in self._sets:
                self._sets[order[j]].discard(v)
        self._sets.pop(v, None)
        del order[i], self._rows[i], self._index[v], self._weights[v]
        low = (1 << i) - 1
        self._rows = [(row & low) | (row >> (i + 1) << i) for row in self._rows]
        for k in range(i, len(order)):
            self._index[order[k]] = k
        self._structure_changed()

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)`` if present."""
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None:
            raise GraphError(f"unknown endpoint in edge ({u!r}, {v!r})")
        self._rows[i] &= ~(1 << j)
        self._rows[j] &= ~(1 << i)
        if u in self._sets:
            self._sets[u].discard(v)
        if v in self._sets:
            self._sets[v].discard(u)
        self._structure_changed()

    def set_weight(self, v: Vertex, weight: float) -> None:
        """Update the weight of an existing vertex."""
        if v not in self._weights:
            raise GraphError(f"unknown vertex {v!r}")
        self._weights[v] = checked_weight(v, weight)
        self._mutations += 1

    def _structure_changed(self) -> None:
        """Bump the stamp and drop the Frank setup built for the old rows."""
        self._mutations += 1
        self._frank_order = None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._order)

    def vertices(self) -> List[Vertex]:
        """Return the vertices in insertion order."""
        return list(self._order)

    def edges(self) -> List[Tuple[Vertex, Vertex]]:
        """Return each undirected edge once, ``(u, v)`` with ``u`` inserted
        first, in row order."""
        order = self._order
        out: List[Tuple[Vertex, Vertex]] = []
        for i, row in enumerate(self._rows):
            high = row >> (i + 1)
            if high:
                u = order[i]
                out.extend((u, order[i + 1 + j]) for j in bit_indices(high))
        return out

    def num_edges(self) -> int:
        """Return the number of undirected edges."""
        return sum(row.bit_count() for row in self._rows) // 2

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        """Return the adjacency set of ``v`` (do not mutate it).

        The set is built from ``v``'s row on first read and cached; its
        iteration order is the set's hash order.
        """
        try:
            return self._sets[v]
        except KeyError:
            return self._neighbor_set(v)

    def _neighbor_set(self, v: Vertex) -> Set[Vertex]:
        """Build and cache the adjacency set of ``v`` from its row."""
        i = self._index.get(v)
        if i is None:
            raise GraphError(f"unknown vertex {v!r}")
        order = self._order
        built = self._sets[v] = {order[j] for j in bit_indices(self._rows[i])}
        return built

    def degree(self, v: Vertex) -> int:
        """Return the number of neighbours of ``v``."""
        return self._rows[self.index_of(v)].bit_count()

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
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j is not None and bool(self._rows[i] >> j & 1)

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """Return whether ``vertices`` are pairwise adjacent."""
        vs = list(vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if not self.has_edge(u, v):
                    return False
        return True

    # ------------------------------------------------------------------ #
    # rows and masks
    # ------------------------------------------------------------------ #
    def rows(self) -> List[int]:
        """The adjacency rows, by vertex insertion index (treat as read-only)."""
        return self._rows

    def index_of(self, v: Vertex) -> int:
        """Bit index of vertex ``v``."""
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def mask_of(self, vertices: Iterable[Vertex]) -> int:
        """Membership mask of ``vertices`` (unknown vertices ignored)."""
        index = self._index
        m = 0
        for v in vertices:
            i = index.get(v)
            if i is not None:
                m |= 1 << i
        return m

    def vertices_in(self, mask: int) -> List[Vertex]:
        """Vertices whose bits are set in ``mask``, in insertion order."""
        order = self._order
        return [order[i] for i in bit_indices(mask)]

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "Graph":
        """Return an independent copy of the graph."""
        return Graph.from_rows(self._order, self._rows, [self._weights[v] for v in self._order])

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """Return the induced subgraph on ``keep`` (unknown vertices ignored),
        its vertices in this graph's order."""
        mask = self.mask_of(keep)
        kept = bit_indices(mask)
        position = {old: new for new, old in enumerate(kept)}
        rows = []
        for i in kept:
            row = 0
            for j in bit_indices(self._rows[i] & mask):
                row |= 1 << position[j]
            rows.append(row)
        vertices = [self._order[i] for i in kept]
        return Graph.from_rows(vertices, rows, [self._weights[v] for v in vertices])

    def without(self, drop: Iterable[Vertex]) -> "Graph":
        """Return the induced subgraph with ``drop`` removed."""
        drop_set = set(drop)
        return self.subgraph(v for v in self._order if v not in drop_set)

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
