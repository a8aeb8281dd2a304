"""Dense adjacency-bitmask graphs.

A :class:`DenseGraph` stores the adjacency of every vertex as one arbitrary-
width Python integer (bit ``j`` of row ``i`` set iff vertex ``i`` and vertex
``j`` interfere).  Bit indices follow vertex insertion order, so a
``DenseGraph`` is interchangeable with the :class:`~repro.graphs.graph.Graph`
it mirrors: same vertices in the same order, same edges, same weights — and
it *is* a ``Graph`` subclass, so every consumer of the read API keeps
working.  Adjacency *sets* are materialized lazily, in one pass, only when a
consumer actually asks for them (``neighbors``/``subgraph``/``copy``);
mask-level queries (``has_edge``, ``degree``, ``edges``, the dense kernels
below) never build a set.

The payoff is in the kernels.  :func:`dense_mcs` (bucket masks),
:func:`dense_is_peo` (suffix masks), :func:`dense_chordal_clique_masks` and
:func:`dense_frank` return what their set-based counterparts in
:mod:`repro.graphs.chordal`, :mod:`repro.graphs.cliques` and
:mod:`repro.graphs.stable_set` return — same results, same orders, same
tie-breaking — with int-mask arithmetic instead of hash sets, and their own
algorithms where masks allow a cheaper one.
:func:`dense_restricted_coloring` and :func:`dense_restricted_clique_number`
answer colouring and clique-number queries about an induced subgraph from a
PEO of the whole graph (see :mod:`repro.graphs.coloring`).  The set-based
implementations remain in-tree as the reference oracle; the property suite
pins the equivalence.

Mutation contract: structural mutations (``add_edge``, ``remove_vertex``,
...) first materialize the adjacency sets, then *degrade* the instance to
plain set-backed behaviour (``dense_rows()`` returns ``None`` afterwards and
every dense dispatch falls back to the reference path).  Weight updates keep
the dense rows valid — masks do not encode weights.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Graph, Vertex, checked_weight

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


class DenseGraph(Graph):
    """A :class:`Graph` whose adjacency lives in per-vertex bitmask rows.

    Construct with :meth:`from_graph` (convert an existing graph) or
    :meth:`from_rows` (adopt prebuilt symmetric rows, e.g. from the dense
    interference builder).  Vertex ``i`` is ``vertex_order[i]``; rows must
    be symmetric with zero diagonal.
    """

    __slots__ = ("_order", "_index", "_rows", "_frank_order")

    def __init__(self) -> None:
        super().__init__()
        #: vertices in insertion order (bit index -> vertex); None = degraded.
        self._order: Optional[List[Vertex]] = None
        self._index: Optional[Dict[Vertex, int]] = None
        self._rows: Optional[List[int]] = None
        #: (PEO contents, FrankOrder) of the last PEO Frank's walk used.
        self._frank_order: Optional[Tuple[Tuple[Vertex, ...], "FrankOrder"]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        vertex_order: Sequence[Vertex],
        rows: Sequence[int],
        weights: Sequence[float],
    ) -> "DenseGraph":
        """Adopt prebuilt symmetric adjacency rows (not copied)."""
        if not (len(vertex_order) == len(rows) == len(weights)):
            raise GraphError(
                f"mismatched dense graph inputs: {len(vertex_order)} vertices, "
                f"{len(rows)} rows, {len(weights)} weights"
            )
        g = cls()
        g._order = list(vertex_order)
        g._index = {v: i for i, v in enumerate(g._order)}
        if len(g._index) != len(g._order):
            raise GraphError("duplicate vertices in dense graph order")
        g._rows = list(rows)
        for v, w in zip(g._order, weights):
            g._weights[v] = checked_weight(v, w)
        g._mutations = 1
        return g

    @classmethod
    def from_graph(cls, graph: Graph) -> "DenseGraph":
        """Convert ``graph`` (same vertices, order, edges and weights)."""
        order = graph.vertices()
        index = {v: i for i, v in enumerate(order)}
        rows = [0] * len(order)
        for i, v in enumerate(order):
            m = 0
            for u in graph.neighbors(v):
                m |= 1 << index[u]
            rows[i] = m
        return cls.from_rows(order, rows, [graph.weight(v) for v in order])

    # ------------------------------------------------------------------ #
    # dense surface
    # ------------------------------------------------------------------ #
    def dense_rows(self) -> Optional[List[int]]:
        """The symmetric adjacency rows, or ``None`` once degraded.

        Callers must treat the rows (and the list) as read-only.
        """
        return self._rows

    def vertex_order(self) -> List[Vertex]:
        """Vertices in bit-index order (== insertion order)."""
        if self._order is None:
            return super().vertices()
        return list(self._order)

    def index_of(self, v: Vertex) -> int:
        """Bit index of vertex ``v``."""
        if self._index is None:
            raise GraphError("dense index unavailable: graph was mutated")
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def mask_of(self, vertices: Iterable[Vertex]) -> int:
        """Membership mask of ``vertices`` (unknown vertices ignored)."""
        if self._index is None:
            raise GraphError("dense index unavailable: graph was mutated")
        index = self._index
        m = 0
        for v in vertices:
            i = index.get(v)
            if i is not None:
                m |= 1 << i
        return m

    def vertices_in(self, mask: int) -> List[Vertex]:
        """Vertices whose bits are set in ``mask``, in bit order."""
        if self._order is None:
            raise GraphError("dense order unavailable: graph was mutated")
        order = self._order
        return [order[i] for i in bit_indices(mask)]

    # ------------------------------------------------------------------ #
    # lazy set materialization / degradation
    # ------------------------------------------------------------------ #
    def _materialize(self) -> None:
        """Fill the inherited adjacency sets from the rows (one pass)."""
        if self._rows is None or self._adj:
            return
        order = self._order
        adj: Dict[Vertex, set] = {v: set() for v in order}
        for i, row in enumerate(self._rows):
            if row:
                adj[order[i]] = {order[j] for j in bit_indices(row)}
        self._adj = adj

    def _degrade(self) -> None:
        """Switch to plain set-backed behaviour before a structural mutation."""
        self._materialize()
        self._order = None
        self._index = None
        self._rows = None
        self._frank_order = None

    # ------------------------------------------------------------------ #
    # Graph API overrides: reads answered from the dense side
    # ------------------------------------------------------------------ #
    def __contains__(self, v: Vertex) -> bool:
        if self._index is None:
            return super().__contains__(v)
        return v in self._index

    def __len__(self) -> int:
        if self._order is None:
            return super().__len__()
        return len(self._order)

    def __iter__(self):
        if self._order is None:
            return super().__iter__()
        return iter(self._order)

    def vertices(self) -> List[Vertex]:
        if self._order is None:
            return super().vertices()
        return list(self._order)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if self._index is None or self._rows is None:
            return super().has_edge(u, v)
        i = self._index.get(u)
        j = self._index.get(v)
        if i is None or j is None:
            return False
        return bool(self._rows[i] >> j & 1)

    def degree(self, v: Vertex) -> int:
        if self._rows is None:
            return super().degree(v)
        return self._rows[self.index_of(v)].bit_count()

    def num_edges(self) -> int:
        if self._rows is None:
            return super().num_edges()
        return sum(row.bit_count() for row in self._rows) // 2

    def edges(self) -> List[Tuple[Vertex, Vertex]]:
        if self._rows is None or self._order is None:
            return super().edges()
        order = self._order
        out: List[Tuple[Vertex, Vertex]] = []
        for i, row in enumerate(self._rows):
            high = row >> (i + 1)
            if high:
                u = order[i]
                out.extend((u, order[i + 1 + j]) for j in bit_indices(high))
        return out

    def neighbors(self, v: Vertex):
        if self._rows is not None:
            if self._index is not None and v not in self._index:
                raise GraphError(f"unknown vertex {v!r}")
            self._materialize()
        return super().neighbors(v)

    def copy(self) -> Graph:
        """A mutable, plain set-backed deep copy."""
        self._materialize()
        return super().copy()

    def subgraph(self, keep: Iterable[Vertex]) -> Graph:
        self._materialize()
        return super().subgraph(keep)

    def without(self, drop: Iterable[Vertex]) -> Graph:
        # Materialize *before* the base implementation captures an iterator
        # over the (possibly still empty) adjacency dict.
        self._materialize()
        return super().without(drop)

    # ------------------------------------------------------------------ #
    # Graph API overrides: structural mutations degrade first
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex, weight: float = 1.0) -> None:
        if self._index is not None and v in self._index:
            # Weight-only update: rows stay valid, Graph handles the rest.
            self._weights[v] = checked_weight(v, weight)
            self._mutations += 1
            return
        if self._rows is not None:
            self._degrade()
        super().add_vertex(v, weight)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        if self._rows is not None:
            self._degrade()
        super().add_edge(u, v)

    def remove_vertex(self, v: Vertex) -> None:
        if self._rows is not None:
            self._degrade()
        super().remove_vertex(v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        if self._rows is not None:
            self._degrade()
        super().remove_edge(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "dense" if self._rows is not None else "degraded"
        return f"DenseGraph(|V|={len(self)}, |E|={self.num_edges()}, {mode})"


def dense_rows_of(graph: Graph) -> Optional[List[int]]:
    """The dense rows of ``graph`` when it is a live :class:`DenseGraph`.

    The single dispatch predicate used by the chordal/clique/stable-set
    kernels: ``None`` means "use the set-based reference path".
    """
    if isinstance(graph, DenseGraph):
        return graph.dense_rows()
    return None


# ---------------------------------------------------------------------- #
# dense kernels — same results as the set-based reference algorithms
# ---------------------------------------------------------------------- #
def dense_mcs(graph: DenseGraph, start: Optional[Vertex] = None) -> List[Vertex]:
    """Maximum cardinality search on bitmask rows, by bucket masks.

    Returns the visit order of
    :func:`repro.graphs.chordal.maximum_cardinality_search`: the unvisited
    vertex with the most visited neighbours, ties to the lowest insertion
    index, ``start`` first when given.  ``buckets[c]`` is the mask of
    unvisited vertices with ``c`` visited neighbours, so a visit takes the
    lowest set bit of the highest non-empty bucket and then moves the
    vertex's unvisited neighbours up one bucket with one AND/XOR per bucket
    they occupy, from the top bucket down.
    """
    rows = graph.dense_rows()
    assert rows is not None, "dense_mcs requires a live DenseGraph"
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
    order = graph.vertex_order()
    return [order[i] for i in order_out]


def dense_is_peo(graph: DenseGraph, order: Sequence[Vertex]) -> bool:
    """Perfect-elimination-order check on bitmask rows.

    Golumbic's earliest-later-neighbour criterion, as in
    :func:`repro.graphs.chordal.is_perfect_elimination_order`.  The pivot of
    ``v`` — its later neighbour earliest in ``order`` — is found by binary
    search over the suffix masks of the order (the largest position whose
    suffix still holds every later neighbour), and "every other later
    neighbour is adjacent to the pivot" is one AND-NOT against the pivot's
    row.  The suffix masks take about ``n²/8`` bytes for the call only.
    """
    rows = graph.dense_rows()
    assert rows is not None, "dense_is_peo requires a live DenseGraph"
    n = len(rows)
    if len(order) != n:
        return False
    index = graph._index
    assert index is not None
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


def dense_restricted_coloring(
    graph: DenseGraph, peo: Sequence[Vertex], members: Container[Vertex]
) -> Dict[Vertex, int]:
    """Tree-scan of ``G[members]``: greedy colouring along ``reversed(peo)``.

    One int mask per colour holds the members coloured with it so far; a
    member takes the lowest colour whose mask misses its row.
    """
    rows = graph.dense_rows()
    index = graph._index
    assert rows is not None and index is not None, "dense_restricted_coloring requires a live DenseGraph"
    classes: List[int] = []
    coloring: Dict[Vertex, int] = {}
    for v in reversed(peo):
        if v not in members:
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


def dense_restricted_clique_number(
    graph: DenseGraph, peo: Sequence[Vertex], members: Container[Vertex]
) -> int:
    """ω of ``G[members]``: the largest ``1 + |row(v) & later members|``."""
    rows = graph.dense_rows()
    index = graph._index
    assert rows is not None and index is not None, "dense_restricted_clique_number requires a live DenseGraph"
    later = 0
    omega = 0
    for v in reversed(peo):
        if v not in members:
            continue
        i = index[v]
        size = (rows[i] & later).bit_count() + 1
        if size > omega:
            omega = size
        later |= 1 << i
    return omega


def dense_chordal_clique_masks(
    graph: DenseGraph, peo: Sequence[Vertex]
) -> List[int]:
    """Candidate-clique masks ``{v} | later-neighbours(v)`` for each PEO vertex."""
    rows = graph.dense_rows()
    assert rows is not None, "dense_chordal_clique_masks requires a live DenseGraph"
    index = graph._index
    assert index is not None
    peo_bits = [index[v] for v in peo]
    later_of: Dict[int, int] = {}
    later = 0
    for v in reversed(peo_bits):
        later_of[v] = later
        later |= 1 << v
    return [(1 << v) | (rows[v] & later_of[v]) for v in peo_bits]


class FrankOrder(NamedTuple):
    """The PEO-derived half of Frank's walk on one :class:`DenseGraph`.

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


def frank_order(graph: DenseGraph, peo: Sequence[Vertex]) -> FrankOrder:
    """``graph``'s :class:`FrankOrder` for ``peo``, cached on the graph.

    The cache is keyed by the PEO's contents, not by the object: a PEO
    with other contents (a different list, or the same list mutated) gets
    its own setup, never a stale one.
    """
    key = tuple(peo)
    cached = graph._frank_order
    if cached is None or cached[0] != key:
        cached = graph._frank_order = (key, build_frank_order(graph, key))
    return cached[1]


def build_frank_order(graph: DenseGraph, peo: Sequence[Vertex]) -> FrankOrder:
    """Build the :class:`FrankOrder` of ``peo`` (one reverse walk)."""
    rows = graph.dense_rows()
    index = graph._index
    assert rows is not None and index is not None, "build_frank_order requires a live DenseGraph"
    bits = [b for b in (index.get(v) for v in peo) if b is not None]
    later_neighbours = [0] * len(rows)
    later = 0
    for b in reversed(bits):
        later_neighbours[b] = rows[b] & later
        later |= 1 << b
    return FrankOrder(bits, later, later_neighbours)


def dense_frank(
    graph: DenseGraph,
    weights: Optional[Dict[Vertex, float]],
    peo: Sequence[Vertex],
    candidates: int,
) -> List[Vertex]:
    """Frank's maximum weighted stable set on bitmask rows.

    Replicates the marking/selection phases of
    :func:`repro.graphs.stable_set.maximum_weighted_stable_set` exactly
    (same PEO walk, same residual-weight updates, same reverse-marking
    greedy selection), with candidate filtering and the adjacency tests as
    mask operations.  ``candidates`` is a membership mask over the graph's
    bit order; ``peo`` may cover more vertices than the candidates, exactly
    like the reference.  ``weights=None`` reads the graph's own weights.
    """
    rows = graph.dense_rows()
    assert rows is not None, "dense_frank requires a live DenseGraph"
    order = graph._order
    assert order is not None
    setup = frank_order(graph, peo)
    if weights is None:
        weights = graph._weights

    residual = [0.0] * len(rows)
    missing_weights: List[Vertex] = []
    for i in bit_indices(candidates):
        try:
            residual[i] = float(weights[order[i]])
        except KeyError:
            missing_weights.append(order[i])
    if missing_weights:
        raise GraphError(f"weights missing for vertices: {missing_weights!r}")
    missing = candidates & ~setup.covered
    if missing:
        absent = [order[i] for i in bit_indices(missing)]
        raise GraphError(f"peo missing candidate vertices: {absent!r}")

    # Marking phase: vertices with positive residual, in PEO order; each
    # marked vertex's residual is subtracted (clamped at zero) from its
    # not-yet-processed candidate neighbours.  Non-candidates keep residual
    # zero, so the positivity test also skips them.  ``positive`` prunes
    # neighbour extraction to vertices whose residual can still change —
    # residuals at zero stay at zero under the reference's
    # max(0, r - amount) update.
    later_neighbours = setup.later_neighbours
    marked: List[int] = []
    positive = candidates
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
