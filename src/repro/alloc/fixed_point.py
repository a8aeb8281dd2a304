"""Fixed-point layered allocation (paper Algorithms 3 and 4, "FPL"/"BFPL").

After the first ``R`` layers, further variables may still fit: a variable can
be allocated as long as none of the maximal cliques containing it already has
``R`` allocated members (on a chordal graph, maximal cliques are exactly the
sets of simultaneously-live variables, so this is precisely the register-
pressure constraint).  The fixed-point allocator therefore:

1. runs the plain layered allocation (at most ``R`` layers);
2. counts, per maximal clique, how many of its members are allocated, and
   removes from the candidate pool every vertex belonging to a *saturated*
   clique (Algorithm 4, ``Update``);
3. repeatedly allocates one more maximum weighted stable set of the remaining
   candidates, updating the clique counts, until no candidate is left — the
   fixed point.

Note (documented deviation): the paper's Algorithm 3 omits adding ``result``
to ``allocated_list`` inside the fixed-point loop, which is an obvious typo —
the allocated list would otherwise never grow after the first phase.  We add
it.  We also stop early when the stable-set search returns an empty layer
(possible when every remaining candidate has zero weight), which guarantees
termination.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.alloc.base import register_allocator
from repro.alloc.biased import bias_weights
from repro.alloc.layered import LayeredOptimalAllocator, RegisterLayers
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.graphs.cliques import Clique
from repro.graphs.graph import Vertex
from repro.telemetry.tracer import current_tracer


def clique_index(cliques: List[Clique]) -> Dict[Vertex, List[int]]:
    """Vertex -> positions in ``cliques`` of the cliques containing it."""
    clique_of_vertex: Dict[Vertex, List[int]] = {}
    for index, clique in enumerate(cliques):
        for vertex in clique:
            clique_of_vertex.setdefault(vertex, []).append(index)
    return clique_of_vertex


class FixedPointLayeredAllocator(LayeredOptimalAllocator):
    """Layered allocation iterated to a fixed point (paper's FPL).

    Both phases run NL's :meth:`~LayeredOptimalAllocator.layer_rounds`:
    phase 1 with NL's ``R``-round limit, phase 2 until no candidate is left,
    with Algorithm 4's ``Update`` after every layer.
    """

    name = "FPL"
    version = "1"

    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Run Algorithm 3: R layers, then extra stable sets until saturation."""
        if problem.constraints is not None:
            return self._allocate_constrained(problem)
        num_registers = problem.num_registers
        if num_registers <= 0:
            # Every clique is already saturated: nothing can be allocated.
            return self._result(problem, [], stats={"layers": 0, "fixed_point_rounds": 0})

        candidates: Set[Vertex] = set(problem.graph.vertices())
        allocated: List[Vertex] = []
        tracer = current_tracer()

        # ---------------- Phase 1: the plain layered allocation ---------- #
        with tracer.span("alloc:layered_phase", category="alloc", allocator=self.name) as phase:
            layers = self.layer_rounds(problem, candidates, allocated, num_registers)
            phase.set(layers=layers)
        if tracer.enabled:
            tracer.count("alloc.layered.rounds", layers)

        # ---------------- Phase 2: iterate to a fixed point -------------- #
        cliques: List[Clique] = problem.cliques
        allocated_per_clique: Dict[int, int] = {i: 0 for i in range(len(cliques))}
        allowed: Set[int] = set(range(len(cliques)))
        # R-independent, so built once per problem like the cliques.
        clique_of_vertex = problem.derived("clique_of_vertex", lambda: clique_index(cliques))

        def update(freshly_allocated: List[Vertex]) -> None:
            """Algorithm 4: bump clique counters, drop saturated cliques."""
            for vertex in freshly_allocated:
                for index in clique_of_vertex.get(vertex, []):
                    if index not in allowed:
                        continue
                    allocated_per_clique[index] += 1
                    if allocated_per_clique[index] >= num_registers:
                        candidates.difference_update(cliques[index])
                        allowed.discard(index)

        update(allocated)

        with tracer.span("alloc:fixed_point_phase", category="alloc", allocator=self.name) as phase:
            # Every round allocates at least one candidate, so this limit never binds.
            extra_rounds = self.layer_rounds(problem, candidates, allocated, len(candidates), after=update)
            phase.set(rounds=extra_rounds, saturated_cliques=len(cliques) - len(allowed))
        if tracer.enabled:
            tracer.count("alloc.fixed_point.rounds", extra_rounds)
            tracer.count("alloc.fixed_point.saturated_cliques", len(cliques) - len(allowed))

        return self._result(
            problem,
            allocated,
            stats={
                "layers": layers,
                "fixed_point_rounds": extra_rounds,
                "saturated_cliques": len(cliques) - len(allowed),
                "total_cliques": len(cliques),
            },
        )

    def _allocate_constrained(self, problem: AllocationProblem) -> AllocationResult:
        """Constrained FPL: per-register layers, then fixed-point extension.

        Phase 1 is the constrained NL layering (one pass of
        :meth:`RegisterLayers.grow` over the register file).  Phase 2
        replaces the clique-saturation Update — which assumes ``R``
        interchangeable colors — with its constrained analogue: further
        passes that *extend* each register's layer with another stable set
        over the still-compatible candidates until a full pass grows
        nothing.  Every extension keeps the layer an independent set bound
        to one register, so the fixed point is sound by construction.
        """
        if problem.num_registers <= 0:
            return self._result(
                problem, [], stats={"layers": 0, "fixed_point_rounds": 0, "constrained": True}
            )
        tracer = current_tracer()
        layering = RegisterLayers(problem, self.layer_weights(problem))
        with tracer.span("alloc:layered_phase", category="alloc", allocator=self.name) as phase:
            rounds = layering.sweep()
            phase.set(layers=rounds)
        if tracer.enabled:
            tracer.count("alloc.layered.rounds", rounds)

        extra_rounds = 0
        with tracer.span("alloc:fixed_point_phase", category="alloc", allocator=self.name) as phase:
            while layering.remaining:
                grown = layering.sweep()
                if not grown:
                    break
                extra_rounds += grown
            phase.set(rounds=extra_rounds, saturated_cliques=0)
        if tracer.enabled:
            tracer.count("alloc.fixed_point.rounds", extra_rounds)

        return self._result(
            problem,
            layering.allocated(),
            stats={"layers": rounds, "fixed_point_rounds": extra_rounds, **layering.stats()},
        )


class BiasedFixedPointLayeredAllocator(FixedPointLayeredAllocator):
    """Fixed-point layered allocation with degree-biased search weights (BFPL)."""

    name = "BFPL"
    version = "1"

    def layer_weights(self, problem: AllocationProblem) -> Optional[Dict[Vertex, float]]:
        """Search with the biased weights of :func:`repro.alloc.biased.bias_weights`.

        Cached per problem (the bias is ``R``-independent), like BL's.
        """
        return problem.derived("bias_weights", lambda: bias_weights(problem.graph))


register_allocator("FPL", FixedPointLayeredAllocator)
register_allocator("BFPL", BiasedFixedPointLayeredAllocator)
register_allocator("fixed-point", FixedPointLayeredAllocator)
