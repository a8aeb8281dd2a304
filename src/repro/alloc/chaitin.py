"""Chaitin–Briggs optimistic graph coloring (the paper's "GC" baseline).

The classical graph-coloring allocator interleaves spilling with coloring:

* *simplify*: repeatedly remove (push) the node of least degree < R;
* when only high-degree nodes remain, pick a spill candidate minimizing
  ``cost(v) / degree(v)`` (the standard Chaitin heuristic) and push it
  optimistically (Briggs);
* *select*: pop nodes and assign the lowest free color; an optimistic node
  with no free color becomes an *actual spill*.

In the decoupled spill-everywhere evaluation of the paper the allocator is
not iterated after spilling (spilled variables simply leave the graph), so
the reported cost is the summed weight of the actually-spilled nodes.

Both choices break ties by ``str(v)``.  They are driven by two lazy heaps
over vertex indices instead of a scan of the remaining vertices per step:
the *simplify* heap, keyed ``(degree, str(v))``, gets one push per degree
decrement below R and skips entries whose degree is out of date; the
*spill* heap, keyed ``(cost/degree, str(v))``, is filled once, when
simplify first runs dry, and re-keys an out-of-date entry when it reaches
the top.  Costs are ≥ 0, so a key can only grow as the degree falls: an
out-of-date entry never sits above its true key, and a top entry whose key
is current is the true minimum.  Simplify and spill choice thus cost
O((V + E) log V) instead of O(V²), select O(V + E); the vertex names,
costs and neighbour indices are R-independent and built once per problem.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import List, Optional, Tuple

from repro.alloc.base import Allocator, register_allocator
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.graphs.graph import Graph, Vertex, bit_indices

#: (vertices in graph order, their ``str`` names, their weights, the
#: neighbour indices of each vertex) — what one GC run reads of the graph.
GraphIndex = Tuple[List[Vertex], List[str], List[float], List[List[int]]]


def graph_index(graph: Graph) -> GraphIndex:
    """Index ``graph``'s vertices by position in :meth:`Graph.vertices`."""
    order = graph.vertices()
    # Bit ``j`` of an adjacency row is vertex ``order[j]``.
    neighbors = [bit_indices(row) for row in graph.rows()]
    return order, [str(v) for v in order], [graph.weight(v) for v in order], neighbors


class ChaitinBriggsAllocator(Allocator):
    """Optimistic Chaitin–Briggs coloring with cost/degree spill choice."""

    name = "GC"
    version = "1"

    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Run simplify/select and return the colored (allocated) variables."""
        graph = problem.graph
        num_registers = problem.num_registers
        if num_registers == 0:
            return self._result(problem, [], stats={"potential_spills": len(graph)})

        order, names, weights, neighbors = problem.derived("gc_index", lambda: graph_index(graph))
        count = len(order)
        degree = [len(adjacent) for adjacent in neighbors]
        removed = [False] * count
        stack: List[int] = []
        potential_spills = 0

        low = [(degree[i], names[i], i) for i in range(count) if degree[i] < num_registers]
        heapify(low)
        spill: Optional[List[Tuple[float, str, int]]] = None
        while len(stack) < count:
            if low:
                entry_degree, _, vertex = heappop(low)
                if removed[vertex] or entry_degree != degree[vertex]:
                    continue
            else:
                # Everything left has degree >= R >= 1: pick the cheapest
                # spill candidate.
                if spill is None:
                    spill = [(weights[i] / degree[i], names[i], i) for i in range(count) if not removed[i]]
                    heapify(spill)
                key, name, vertex = spill[0]
                if removed[vertex]:
                    heappop(spill)
                    continue
                current = weights[vertex] / degree[vertex]
                if current != key:
                    heapreplace(spill, (current, name, vertex))
                    continue
                heappop(spill)
                potential_spills += 1
            stack.append(vertex)
            removed[vertex] = True
            for u in neighbors[vertex]:
                if not removed[u]:
                    left = degree[u] - 1
                    degree[u] = left
                    if left < num_registers:
                        heappush(low, (left, names[u], u))

        # Select phase: optimistic coloring.
        colors = [-1] * count
        spilled = [False] * count
        colors_used = 0
        while stack:
            vertex = stack.pop()
            used = {colors[u] for u in neighbors[vertex]}
            color = 0
            while color in used:
                color += 1
            if color < num_registers:
                colors[vertex] = color
                if color >= colors_used:
                    colors_used = color + 1
            else:
                spilled[vertex] = True

        allocated = [order[i] for i in range(count) if not spilled[i]]
        return self._result(
            problem,
            allocated,
            stats={
                "potential_spills": potential_spills,
                "actual_spills": sum(spilled),
                "colors_used": colors_used,
            },
        )


register_allocator("GC", ChaitinBriggsAllocator)
register_allocator("chaitin", ChaitinBriggsAllocator)
register_allocator("graph-coloring", ChaitinBriggsAllocator)
