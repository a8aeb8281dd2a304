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
per-round chordality re-validation.  ``shared_peo=False`` retains the
original materializing path (one fresh subgraph + MCS per round); it is kept
as the behavioural reference for tests and benchmarks.

Note (documented deviation): every layer is a *maximum* weighted stable set
under both paths, but when several maxima tie, which one Frank's algorithm
returns depends on the elimination order (per-round MCS vs restriction of
the shared PEO), and since the greedy layering is not globally optimal,
different tie-breaks can compound into different end-to-end spill costs on
crafted equal-weight instances (cf. the paper's Figure 6 discussion).  On
the shipped corpora — generic real-valued spill costs, where per-layer
maxima are unique — the two paths produce identical results, which the test
suite pins down.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.alloc.base import Allocator, register_allocator
from repro.alloc.constraints import ProblemConstraints
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.errors import AllocationError
from repro.graphs.graph import Graph, Vertex
from repro.graphs.stable_set import maximum_weighted_stable_set
from repro.telemetry.tracer import current_tracer


def optimal_layer(
    graph: Graph,
    candidates: Set[Vertex],
    weights: Optional[Dict[Vertex, float]] = None,
    peo: Optional[Sequence[Vertex]] = None,
) -> List[Vertex]:
    """Optimally allocate one register among ``candidates``.

    This is Frank's maximum weighted stable set on the candidate-induced
    sub-graph.  When a ``peo`` of the *full* graph is supplied, the search
    runs directly over the candidate mask (its restriction to
    ``candidates`` is a valid PEO of the induced subgraph), so the round
    costs ``O(|V|+|E|)`` with no subgraph copy.  Without ``peo`` the
    original path is taken: materialize the subgraph and recompute its
    elimination order from scratch.
    """
    if not candidates:
        return []
    if peo is not None:
        return maximum_weighted_stable_set(graph, weights=weights, peo=peo, candidates=candidates)
    subgraph = graph.subgraph(candidates)
    if weights is not None:
        layer_weights = {v: weights[v] for v in subgraph.vertices()}
    else:
        layer_weights = None
    return maximum_weighted_stable_set(subgraph, weights=layer_weights)


# ---------------------------------------------------------------------- #
# constrained layering: shared by NL/BL (one round per register) and by
# FPL/BFPL (same rounds, then fixed-point layer extension)
# ---------------------------------------------------------------------- #
def constrained_setup(
    problem: AllocationProblem,
) -> Tuple[ProblemConstraints, List[str], Dict[Vertex, FrozenSet[str]], Dict[str, FrozenSet[str]]]:
    """Precompute the per-round constraint data of one constrained run.

    Returns ``(constraints, registers, allowed, alias)`` where ``registers``
    is the file truncated to the problem's ``R`` budget, ``allowed`` maps
    each vertex to the registers it may receive within that budget, and
    ``alias`` is the symmetric aliasing closure.
    """
    constraints = problem.constraints
    if constraints is None:
        raise AllocationError("constrained_setup needs a problem with constraints")
    registers = list(constraints.registers[: problem.num_registers])
    allowed = {
        v: frozenset(constraints.allowed(str(v), problem.num_registers))
        for v in problem.graph.vertices()
    }
    return constraints, registers, allowed, constraints.alias_closure()


def register_candidates(
    graph: Graph,
    register: str,
    remaining: Set[Vertex],
    allowed: Dict[Vertex, FrozenSet[str]],
    layers: Dict[str, List[Vertex]],
    alias: Dict[str, FrozenSet[str]],
) -> Set[Vertex]:
    """Vertices that may join ``register``'s layer this round.

    A candidate must still be unallocated, have ``register`` in its allowed
    set, and not interfere with any variable already holding a register that
    *aliases* ``register`` (identical registers are handled by the stable-set
    search itself: one round, one stable set).
    """
    banned: Set[Vertex] = set()
    for other in alias.get(register, frozenset()):
        for member in layers.get(other, []):
            banned.update(graph.neighbors(member))
    return {v for v in remaining if register in allowed[v] and v not in banned}


class LayeredOptimalAllocator(Allocator):
    """Paper Algorithm 2: the plain ("naive") layered-optimal allocator NL."""

    name = "NL"
    version = "1"
    supports_constraints = True

    def __init__(self, shared_peo: bool = True) -> None:
        #: reuse one problem-level PEO across rounds (the paper's intended
        #: complexity); ``False`` selects the materializing reference path.
        self.shared_peo = shared_peo

    # ------------------------------------------------------------------ #
    def layer_weights(self, problem: AllocationProblem) -> Optional[Dict[Vertex, float]]:
        """Weights used when searching for a layer.

        The plain allocator searches with the true spill costs; the biased
        variant overrides this hook (see :mod:`repro.alloc.biased`).  Costs
        reported in the result always use the true weights.
        """
        return None

    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Run the layered allocation and return the allocated set."""
        if problem.constraints is not None:
            return self._allocate_constrained(problem)
        graph = problem.graph
        candidates: Set[Vertex] = set(graph.vertices())
        allocated: List[Vertex] = []
        weights = self.layer_weights(problem)
        tracer = current_tracer()

        rounds = 0
        peo: Optional[Sequence[Vertex]] = None
        while candidates and rounds < problem.num_registers:
            if self.shared_peo and peo is None:
                # One PEO per problem, shared by every round (and, via the
                # problem cache, by every register count of a sweep).
                peo = problem.peo
            if tracer.enabled:
                with tracer.span(
                    "alloc:layer",
                    category="alloc",
                    allocator=self.name,
                    round=rounds,
                    candidates=len(candidates),
                ) as span:
                    layer = optimal_layer(graph, candidates, weights=weights, peo=peo)
                    span.set(layer_size=len(layer))
                tracer.count("alloc.frank.calls")
                tracer.count("alloc.frank.peo_reused" if peo is not None else "alloc.frank.peo_recomputed")
            else:
                layer = optimal_layer(graph, candidates, weights=weights, peo=peo)
            if not layer:
                break
            allocated.extend(layer)
            candidates.difference_update(layer)
            rounds += 1
        if tracer.enabled:
            tracer.count("alloc.layered.rounds", rounds)

        # One register per layer; "step" stays in the stats so stored cells keep their bytes.
        return self._result(
            problem,
            allocated,
            stats={"layers": rounds, "step": 1, "candidates_left": len(candidates)},
        )

    def _allocate_constrained(self, problem: AllocationProblem) -> AllocationResult:
        """Constrained layering: one round per concrete register.

        Each of the (at most ``R``) allocatable registers gets one round: a
        maximum weighted stable set searched over the vertices *allowed* to
        hold that register (class/pre-color restrictions, minus neighbors of
        aliasing layers) — the same candidate-mask Frank search as the
        unconstrained rounds, so the dense and set-based kernels stay in
        lockstep.  A layer is sound by construction: it is a stable set
        bound to one register, and aliasing registers never touch
        interfering vertices.  Pre-colored variables are candidates only in
        their register's round (conservative: the round order is the file
        order, not weight-driven).
        """
        graph = problem.graph
        weights = self.layer_weights(problem)
        tracer = current_tracer()
        peo: Optional[Sequence[Vertex]] = problem.peo if self.shared_peo else None
        _constraints, registers, allowed, alias = constrained_setup(problem)

        remaining: Set[Vertex] = set(graph.vertices())
        layers: Dict[str, List[Vertex]] = {}
        rounds = 0
        for register in registers:
            if not remaining:
                break
            candidates = register_candidates(graph, register, remaining, allowed, layers, alias)
            if not candidates:
                continue
            layer = optimal_layer(graph, candidates, weights=weights, peo=peo)
            if tracer.enabled:
                tracer.count("alloc.frank.calls")
                tracer.count("alloc.frank.peo_reused" if peo is not None else "alloc.frank.peo_recomputed")
            if not layer:
                continue
            layers[register] = list(layer)
            remaining.difference_update(layer)
            rounds += 1
        if tracer.enabled:
            tracer.count("alloc.layered.rounds", rounds)

        allocated = [v for members in layers.values() for v in members]
        return self._result(
            problem,
            allocated,
            stats={
                "layers": rounds,
                "step": 1,
                "candidates_left": len(remaining),
                "constrained": True,
                "register_layers": {
                    register: sorted(str(v) for v in members)
                    for register, members in layers.items()
                },
            },
        )


register_allocator("NL", LayeredOptimalAllocator)
register_allocator("layered", LayeredOptimalAllocator)
