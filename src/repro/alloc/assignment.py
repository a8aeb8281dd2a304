"""Register assignment (coloring) of an allocation.

In the decoupled approach the assignment phase runs after allocation: the
allocated variables are mapped to concrete registers.  On chordal (SSA)
graphs this is the easy part the paper leverages — a greedy scan of the
reverse perfect elimination order ("tree-scan") colors the graph with exactly
its clique number — and on general graphs a greedy coloring is attempted.
:func:`assign_registers_by_peo` tree-scans along the problem's own PEO
restricted to the allocated variables, so a chordal problem is assigned
without an induced-subgraph copy or a second elimination order;
:func:`assign_registers` colours the induced subgraph and serves general
graphs (and stays the reference the restriction is tested against).

Constrained problems (:class:`~repro.alloc.constraints.ProblemConstraints`)
take a different path, :func:`assign_constrained`: constrained allocators
already bind every layer to a concrete register and publish the binding in
``result.stats["register_layers"]``, which the assignment stage replays
directly; without that hint a greedy list-coloring over each variable's
allowed registers (aliasing-aware) is attempted.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.alloc.constraints import ProblemConstraints
from repro.errors import AllocationError
from repro.graphs.chordal import is_chordal, maximum_cardinality_search
from repro.graphs.coloring import (
    Coloring,
    chordal_coloring,
    greedy_coloring,
    is_valid_coloring,
    restricted_coloring,
)
from repro.graphs.graph import Graph, Vertex


def assign_registers(
    graph: Graph,
    allocated: Iterable[Vertex],
    num_registers: int,
    register_names: Optional[Dict[int, str]] = None,
) -> Dict[Vertex, str]:
    """Map each allocated variable to a register name.

    This is the general-graph path: it colours the induced subgraph of the
    allocated variables, by tree-scan when that subgraph is chordal and
    greedily otherwise.  Chordal problems take
    :func:`assign_registers_by_peo` instead, which needs no subgraph.

    ``register_names`` optionally maps color indices to target register names
    (e.g. ``{0: "r0", 1: "r1"}``); indices are used when omitted.  When the
    name map is *smaller* than ``num_registers`` — a target whose reserved
    registers shrink the allocatable file below the problem's ``R`` — the
    names are the binding budget: a coloring that fits ``R`` but not the
    available names raises too.

    Raises :class:`AllocationError` if the allocation cannot be colored with
    ``num_registers`` registers — which, for results produced by the library's
    allocators, indicates a bug upstream.
    """
    induced = graph.subgraph(allocated)
    if len(induced) == 0:
        return {}

    if is_chordal(induced):
        coloring = chordal_coloring(induced)
    else:
        coloring = greedy_coloring(induced)
        if not is_valid_coloring(induced, coloring):
            raise AllocationError("internal error: greedy coloring produced an invalid coloring")
    return _registers_of(coloring, num_registers, register_names)


def assign_registers_by_peo(
    graph: Graph,
    peo: Sequence[Vertex],
    allocated: Iterable[Vertex],
    num_registers: int,
    register_names: Optional[Dict[int, str]] = None,
) -> Dict[Vertex, str]:
    """:func:`assign_registers` for a chordal ``graph`` with PEO ``peo``.

    The tree-scan runs along ``reversed(peo)`` restricted to the allocated
    variables (:func:`~repro.graphs.coloring.restricted_coloring`): a PEO of
    the graph restricted to a vertex set is a PEO of the induced subgraph, so
    the colouring uses exactly its clique number of registers without a
    subgraph copy or a second elimination order.  Register names may differ
    from :func:`assign_registers`, which orders the subgraph afresh; the
    number of registers used and the errors raised do not.
    """
    return _registers_of(restricted_coloring(graph, peo, allocated), num_registers, register_names)


def _registers_of(
    coloring: Coloring, num_registers: int, register_names: Optional[Dict[int, str]]
) -> Dict[Vertex, str]:
    """Name the colours of ``coloring``, checking the register budget."""
    if not coloring:
        return {}
    colors_used = max(coloring.values()) + 1
    if colors_used > num_registers:
        raise AllocationError(
            f"allocation needs {colors_used} registers but only {num_registers} are available"
        )
    if register_names is not None and colors_used > len(register_names):
        raise AllocationError(
            f"allocation needs {colors_used} registers but the target provides "
            f"only {len(register_names)} allocatable names"
        )

    def register_name(color: int) -> str:
        if register_names is not None:
            return register_names[color]
        return f"r{color}"

    return {vertex: register_name(color) for vertex, color in coloring.items()}


def assign_constrained(
    graph: Graph,
    allocated: Iterable[Vertex],
    constraints: ProblemConstraints,
    num_registers: int,
    hint: Optional[Mapping[str, Sequence[str]]] = None,
) -> Dict[Vertex, str]:
    """Map allocated variables to registers under file constraints.

    ``hint`` is a ``register -> [variable names]`` binding (the
    ``register_layers`` stats entry constrained allocators publish); when it
    covers the allocated set it is replayed as-is — the verify stage remains
    the authority on its validity.  Without a (complete) hint, a greedy
    list-coloring assigns each variable the first allowed register no
    interfering neighbor holds, walking the reverse perfect elimination
    order on chordal graphs so unconstrained instances still color with the
    clique number.

    Raises :class:`AllocationError` when some variable has no usable
    register left — for results produced by a constraint-aware allocator
    this indicates a bug upstream.
    """
    allocated_set = set(allocated)
    if not allocated_set:
        return {}

    if hint is not None:
        by_name = {str(v): v for v in allocated_set}
        assignment: Dict[Vertex, str] = {}
        for register, members in hint.items():
            for name in members:
                vertex = by_name.get(str(name))
                if vertex is not None:
                    assignment[vertex] = register
        if set(assignment) == allocated_set:
            return assignment
        # An incomplete hint (e.g. a warm-store record without stats) falls
        # through to the greedy path rather than producing a partial map.

    alias = constraints.alias_closure()
    induced = graph.subgraph(allocated_set)
    order: List[Vertex]
    if is_chordal(induced):
        # MCS order is the reverse of the PEO — the tree-scan coloring order.
        order = list(maximum_cardinality_search(induced))
    else:
        order = sorted(induced.vertices(), key=str)
    assignment = {}
    for vertex in order:
        taken = {
            assignment[neighbor]
            for neighbor in graph.neighbors(vertex)
            if neighbor in assignment
        }
        blocked = set(taken)
        for register in taken:
            blocked |= alias.get(register, frozenset())
        chosen = next(
            (r for r in constraints.allowed(str(vertex), num_registers) if r not in blocked),
            None,
        )
        if chosen is None:
            raise AllocationError(
                f"no allowed register left for {vertex} under the problem's "
                f"constraints (R={num_registers})"
            )
        assignment[vertex] = chosen
    return assignment
