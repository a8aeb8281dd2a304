"""The allocation problem instance shared by every allocator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.alloc.constraints import ProblemConstraints
from repro.analysis.live_ranges import LiveInterval
from repro.errors import AllocationError, NotChordalError
from repro.graphs.chordal import (
    is_perfect_elimination_order,
    maximum_cardinality_search,
)
from repro.graphs.cliques import Clique, maximal_cliques_chordal, maximal_cliques_general
from repro.graphs.graph import Graph, Vertex


@dataclass
class AllocationProblem:
    """A spill-everywhere register allocation instance.

    Attributes
    ----------
    graph:
        Weighted interference graph; vertex weights are spill costs.
    num_registers:
        ``R``, the size of the register file.
    intervals:
        Optional linearised live intervals (needed only by the linear-scan
        allocators).  Interval register names must match graph vertices.
    name:
        Human-readable instance name (benchmark/function), used in reports.
    constraints:
        Optional register-file constraints
        (:class:`~repro.alloc.constraints.ProblemConstraints`): concrete
        register names, per-variable classes/pre-colorings, aliasing.
        ``None`` — the default, and the only value historical problems ever
        carried — keeps digests, allocator behaviour and assignments
        byte-identical to the unconstrained stack.

    Expensive derived structures (chordality, a perfect elimination order and
    the maximal cliques) are computed lazily and cached because several
    allocators running on the same instance need the same data.

    Cache-sharing contract
    ----------------------
    Every cached structure lives in one ``derived`` dict, and
    :meth:`with_registers` clones share that dict **by reference** — the
    clone and the original see the *same* chordality flag, PEO list, clique
    list and allocator scratch data, because none of them depend on ``R``.
    A register-count sweep therefore computes each of them once, whichever
    clone asks first.  The shared data is valid only while the underlying
    :class:`~repro.graphs.graph.Graph` is unchanged.  Mutating the graph
    after a cache has been filled (adding or removing vertices/edges,
    reweighting) is detected through the graph's
    :attr:`~repro.graphs.graph.Graph.mutation_stamp`: the next cached access
    on *any* clone clears the shared dict — so content digests cached there
    can never go stale either — and recomputes from the current graph.
    """

    graph: Graph
    num_registers: int
    intervals: Optional[List[LiveInterval]] = None
    name: str = ""
    constraints: Optional[ProblemConstraints] = None
    #: shared cache for R-independent derived data (chordality, PEO, cliques,
    #: biased weights, heuristic clusters, content digests, ...), keyed by a
    #: short string.  The *same dict object* is carried across
    #: :meth:`with_registers` clones — see the cache-sharing contract above.
    _derived_cache: Dict[str, object] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_registers < 0:
            raise AllocationError(f"negative register count {self.num_registers}")

    #: key under which the shared derived dict records the graph stamp it was
    #: filled against, so invalidation happens exactly once across all
    #: :meth:`with_registers` sharers.
    _DERIVED_STAMP_KEY = "__graph_mutation_stamp__"

    # ------------------------------------------------------------------ #
    def ensure_cache_coherent(self) -> bool:
        """Drop every cached derived structure if the graph mutated.

        Returns ``True`` when the caches were still coherent, ``False`` when
        a graph mutation was detected and caches were flushed.  Every cached
        access calls this; the pipeline engine also calls it explicitly
        before keying the content-addressed store, because a stale cached
        digest would poison the cache for every later run.

        The stamp is stored *inside* the shared dict, so after a mutation
        the dict is cleared exactly once: a sibling clone catching up later
        finds it coherent instead of wiping entries the first sharer already
        recomputed.
        """
        stamp = getattr(self.graph, "mutation_stamp", None)
        shared_stamp = self._derived_cache.get(self._DERIVED_STAMP_KEY)
        if shared_stamp == stamp:
            return True
        coherent = shared_stamp is None
        if not coherent:
            # clear() (not a fresh dict) so every sharer observes it.
            self._derived_cache.clear()
        self._derived_cache[self._DERIVED_STAMP_KEY] = stamp
        return coherent

    def _elimination_order(self) -> List[Vertex]:
        """The reversed-MCS candidate elimination order, computed once.

        ``is_chordal``, ``peo`` and ``cliques`` all start from the same
        deterministic maximum-cardinality search of the same graph, so one
        MCS per instance (and per register-count sweep) serves all three.
        """
        return self.derived(
            "mcs_elimination_order",
            lambda: list(reversed(maximum_cardinality_search(self.graph))),
        )

    @property
    def is_chordal(self) -> bool:
        """Whether the interference graph is chordal (cached).

        Certified by checking the MCS order with the PEO test, which stays a
        separate pass over an arbitrary order.
        """
        return self.derived(
            "is_chordal",
            lambda: is_perfect_elimination_order(self.graph, self._elimination_order()),
        )

    @property
    def peo(self) -> List[Vertex]:
        """A perfect elimination order of the graph (chordal instances only)."""
        if not self.is_chordal:
            raise NotChordalError("graph is not chordal: no perfect elimination order exists")
        return self._elimination_order()

    @property
    def cliques(self) -> List[Clique]:
        """The maximal cliques of the interference graph (cached)."""
        return self.derived(
            "cliques",
            lambda: maximal_cliques_chordal(self.graph, self._elimination_order())
            if self.is_chordal
            else maximal_cliques_general(self.graph),
        )

    @property
    def max_pressure(self) -> int:
        """The clique number ω of the graph — MaxLive on SSA programs."""
        return max((len(c) for c in self.cliques), default=0)

    @property
    def variables(self) -> List[Vertex]:
        """The variables competing for registers."""
        return self.graph.vertices()

    @property
    def total_weight(self) -> float:
        """Sum of all spill costs — the cost of spilling everything."""
        return self.graph.total_weight()

    def needs_spilling(self) -> bool:
        """Whether the register pressure exceeds the register count."""
        return self.max_pressure > self.num_registers

    def with_registers(self, num_registers: int) -> "AllocationProblem":
        """Return the same instance with a different register count.

        The clone shares the original's ``derived`` dict *by reference* —
        chordality flag, PEO, cliques and allocator scratch data do not
        depend on ``R``, which is what makes register-count sweeps cheap.
        The clone therefore aliases the original's graph and caches: mutate
        neither.  If the graph does mutate, the
        :attr:`~repro.graphs.graph.Graph.mutation_stamp` guard invalidates
        the shared caches on the next access from any clone (see the
        class-level cache-sharing contract).
        """
        clone = AllocationProblem(
            graph=self.graph,
            num_registers=num_registers,
            intervals=self.intervals,
            name=self.name,
            constraints=self.constraints,
        )
        clone._derived_cache = self._derived_cache
        return clone

    def derived(self, key: str, compute):
        """Return an ``R``-independent derived value, computing it once.

        ``compute`` is a zero-argument callable evaluated on the first
        request; the result is memoized in a cache shared with every
        :meth:`with_registers` clone, so register-count sweeps pay graph
        preprocessing once per instance rather than once per ``R``.  The
        cache participates in the stale-graph guard: a graph mutation clears
        it for all clones at once.
        """
        self.ensure_cache_coherent()
        if key not in self._derived_cache:
            self._derived_cache[key] = compute()
        return self._derived_cache[key]

    def spill_cost_of(self, spilled: Sequence[Vertex]) -> float:
        """Total cost of spilling ``spilled``."""
        return self.graph.total_weight(spilled)

    def weights(self) -> Dict[Vertex, float]:
        """Copy of the spill-cost map."""
        return self.graph.weights()
