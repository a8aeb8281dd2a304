"""The layered-optimal allocator (paper Algorithm 2, "NL").

The allocator runs at most ``R`` rounds; each round solves *optimally* the
allocation problem with one register restricted to the variables not yet
allocated — the maximum weighted stable set of the candidate sub-graph,
solved exactly by Frank's algorithm on chordal graphs — and commits the
resulting layer.  The final allocation is the union of the layers, which is
trivially ``R``-colorable because it is a union of at most ``R`` stable sets.

Overall complexity: ``O(R · (|V| + |E|))``.  Two structural facts make this
bound reachable: an induced subgraph of a chordal graph is chordal, and the
restriction of a perfect elimination order to any vertex subset is still a
PEO of the induced subgraph.  The allocator therefore computes one PEO per
*problem* (cached on :class:`~repro.alloc.problem.AllocationProblem`) and
runs Frank's algorithm over a candidate *mask* each round — no per-round
``Graph.subgraph`` copy, no per-round maximum-cardinality search, no
per-round chordality re-validation.

The whole layered family shares two loops: :meth:`LayeredOptimalAllocator.
layer_rounds` (unconstrained: NL and BL, and both phases of FPL and BFPL)
and :meth:`RegisterLayers.grow` (constrained: one pass over the register
file for NL and BL, repeated passes for FPL and BFPL).  BL and BFPL differ
only in :meth:`~LayeredOptimalAllocator.layer_weights`.

Note (documented deviation): every layer is a *maximum* weighted stable set,
but when several maxima tie, which one Frank's algorithm returns depends on
the elimination order.  The seed implementation materialized each round's
candidate subgraph and searched it with a fresh maximum-cardinality search
(the tests keep it as a reference kernel); the restriction of the shared PEO
can break such ties differently, and since the greedy layering is not
globally optimal, different tie-breaks can compound into different
end-to-end spill costs on crafted equal-weight instances (cf. the paper's
Figure 6 discussion).  On the shipped corpora — generic real-valued spill
costs, where per-layer maxima are unique — the two produce identical
results, which the test suite pins down.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.alloc.base import Allocator, register_allocator
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.errors import AllocationError
from repro.graphs.graph import Graph, Vertex
from repro.graphs.stable_set import maximum_weighted_stable_set
from repro.telemetry.tracer import current_tracer


def optimal_layer(
    graph: Graph,
    candidates: Set[Vertex],
    peo: Sequence[Vertex],
    weights: Optional[Dict[Vertex, float]] = None,
) -> List[Vertex]:
    """Optimally allocate one register among ``candidates``.

    This is Frank's maximum weighted stable set on the candidate-induced
    sub-graph, searched over the candidate mask of the full graph: the
    restriction of ``peo`` (a PEO of the *full* graph) to ``candidates`` is
    a PEO of the induced subgraph, so the round costs ``O(|V|+|E|)`` with no
    subgraph copy.
    """
    return maximum_weighted_stable_set(graph, weights=weights, peo=peo, candidates=candidates)


class RegisterLayers:
    """The per-register layers of one constrained run.

    Each allocatable register (the file truncated to the problem's ``R``)
    owns one layer, grown by :meth:`grow`: a maximum weighted stable set
    searched over the vertices *allowed* to join it — the same
    candidate-mask Frank search as the unconstrained rounds, so the dense
    and set-based kernels stay in lockstep.  A layer is sound by
    construction: it is a stable set bound to one register, and aliasing
    registers never touch interfering vertices.  Pre-colored variables are
    candidates only for their register's layer (conservative: the register
    order is the file order, not weight-driven).
    """

    def __init__(self, problem: AllocationProblem, weights: Optional[Dict[Vertex, float]]) -> None:
        constraints = problem.constraints
        if constraints is None:
            raise AllocationError("RegisterLayers needs a problem with constraints")
        self.graph = problem.graph
        self.weights = weights
        self.peo = problem.peo
        #: the register file truncated to the problem's ``R`` budget.
        self.registers = list(constraints.registers[: problem.num_registers])
        #: each vertex's registers within that budget.
        self.allowed = {
            v: frozenset(constraints.allowed(str(v), problem.num_registers))
            for v in self.graph.vertices()
        }
        #: the symmetric aliasing closure.
        self.alias = constraints.alias_closure()
        self.remaining: Set[Vertex] = set(self.graph.vertices())
        self.layers: Dict[str, List[Vertex]] = {}

    def grow(self, register: str) -> bool:
        """Extend ``register``'s layer by one stable set; True if it grew.

        A candidate must still be unallocated, have ``register`` in its
        allowed set, and not interfere with any member of this register's
        layer or of a layer whose register *aliases* it.
        """
        graph = self.graph
        banned: Set[Vertex] = set()
        for owner in (register, *self.alias.get(register, ())):
            for member in self.layers.get(owner, ()):
                banned.update(graph.neighbors(member))
        candidates = {v for v in self.remaining if register in self.allowed[v] and v not in banned}
        if not candidates:
            return False
        layer = optimal_layer(graph, candidates, self.peo, self.weights)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("alloc.frank.calls")
        if not layer:
            return False
        self.layers.setdefault(register, []).extend(layer)
        self.remaining.difference_update(layer)
        return True

    def sweep(self) -> int:
        """Grow every register's layer once, in file order; how many grew."""
        grown = 0
        for register in self.registers:
            if not self.remaining:
                break
            grown += self.grow(register)
        return grown

    def allocated(self) -> List[Vertex]:
        return [v for members in self.layers.values() for v in members]

    def stats(self) -> Dict:
        return {
            "candidates_left": len(self.remaining),
            "constrained": True,
            "register_layers": {
                register: sorted(str(v) for v in members)
                for register, members in self.layers.items()
            },
        }


class LayeredOptimalAllocator(Allocator):
    """Paper Algorithm 2: the plain ("naive") layered-optimal allocator NL."""

    name = "NL"
    version = "1"
    supports_constraints = True

    # ------------------------------------------------------------------ #
    def layer_weights(self, problem: AllocationProblem) -> Optional[Dict[Vertex, float]]:
        """Weights used when searching for a layer.

        The plain allocator searches with the true spill costs; the biased
        variant overrides this hook (see :mod:`repro.alloc.biased`).  Costs
        reported in the result always use the true weights.
        """
        return None

    def layer_rounds(
        self,
        problem: AllocationProblem,
        candidates: Set[Vertex],
        allocated: List[Vertex],
        limit: int,
        after: Optional[Callable[[List[Vertex]], None]] = None,
    ) -> int:
        """Commit up to ``limit`` layers out of ``candidates``; the round count.

        Each round appends a maximum weighted stable set of the remaining
        ``candidates`` to ``allocated``, removes it from ``candidates`` and
        hands it to ``after``.  The loop stops early when no candidate is
        left or the search returns an empty layer (every remaining candidate
        has zero weight).
        """
        if not candidates or limit <= 0:
            return 0
        graph = problem.graph
        weights = self.layer_weights(problem)
        # One PEO per problem, shared by every round (and, via the problem
        # cache, by every register count of a sweep).
        peo = problem.peo
        tracer = current_tracer()
        rounds = 0
        while candidates and rounds < limit:
            if tracer.enabled:
                with tracer.span(
                    "alloc:layer",
                    category="alloc",
                    allocator=self.name,
                    round=rounds,
                    candidates=len(candidates),
                ) as span:
                    layer = optimal_layer(graph, candidates, peo, weights)
                    span.set(layer_size=len(layer))
                tracer.count("alloc.frank.calls")
            else:
                layer = optimal_layer(graph, candidates, peo, weights)
            if not layer:
                break
            allocated.extend(layer)
            candidates.difference_update(layer)
            if after is not None:
                after(layer)
            rounds += 1
        return rounds

    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Run the layered allocation and return the allocated set.

        Constrained problems get one :meth:`RegisterLayers.grow` per
        concrete register instead of ``R`` interchangeable rounds.
        """
        # One register per layer; "step" stays in the stats so stored cells keep their bytes.
        if problem.constraints is not None:
            layering = RegisterLayers(problem, self.layer_weights(problem))
            rounds = layering.sweep()
            allocated = layering.allocated()
            stats = {"layers": rounds, "step": 1, **layering.stats()}
        else:
            candidates: Set[Vertex] = set(problem.graph.vertices())
            allocated = []
            rounds = self.layer_rounds(problem, candidates, allocated, problem.num_registers)
            stats = {"layers": rounds, "step": 1, "candidates_left": len(candidates)}
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("alloc.layered.rounds", rounds)
        return self._result(problem, allocated, stats=stats)


register_allocator("NL", LayeredOptimalAllocator)
register_allocator("layered", LayeredOptimalAllocator)
