"""GC's heap-driven simplify against the scan-per-step formulation it replaced.

:class:`ScanChaitinBriggs` keeps the previous
``ChaitinBriggsAllocator.allocate`` verbatim: it picks every simplify and
spill vertex with a ``min`` over all remaining vertices.  The heap-driven
allocator must return the same spill set, spill cost and stats on the
shipped corpora and on random general graphs — built edge by edge
("sets", the ids of the class such graphs once were) and adopted whole by
``Graph.from_rows`` ("dense"), with generic, equal, zero and infinite
weights — so stored GC cells (version "1") stay valid.  The scan
formulation reads the graph through its adjacency sets, the heap-driven
one through its rows.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.alloc.chaitin import ChaitinBriggsAllocator
from repro.alloc.problem import AllocationProblem
from repro.alloc.result import AllocationResult
from repro.graphs.graph import Graph, Vertex
from repro.workloads.corpus import build_corpus

CORPUS_SUITES = ("eembc", "spec2000int", "lao_kernels", "specjvm98")
CORPUS_REGISTERS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
RANDOM_GRAPHS_PER_MODE = 150
WEIGHT_MODES = ("generic", "equal", "zero", "infinite")
RANDOM_REGISTERS = (0, 1, 2, 3, 5, 8)


class ScanChaitinBriggs(ChaitinBriggsAllocator):
    """The scan-per-step GC this module checks the heap-driven one against."""

    def allocate(self, problem: AllocationProblem) -> AllocationResult:
        """Run simplify/select and return the colored (allocated) variables."""
        graph = problem.graph
        num_registers = problem.num_registers
        if num_registers == 0:
            return self._result(problem, [], stats={"potential_spills": len(graph)})

        # Mutable adjacency view used by the simplify phase.
        degrees: Dict[Vertex, int] = {v: graph.degree(v) for v in graph.vertices()}
        remaining: Set[Vertex] = set(graph.vertices())
        stack: List[Tuple[Vertex, bool]] = []  # (vertex, pushed_as_spill_candidate)
        potential_spills = 0

        def remove(vertex: Vertex) -> None:
            remaining.discard(vertex)
            for u in graph.neighbors(vertex):
                if u in remaining:
                    degrees[u] -= 1

        while remaining:
            simplifiable = [v for v in remaining if degrees[v] < num_registers]
            if simplifiable:
                # Deterministic order keeps the allocator reproducible.
                vertex = min(simplifiable, key=lambda v: (degrees[v], str(v)))
                stack.append((vertex, False))
                remove(vertex)
                continue
            # Everything has degree >= R: pick the cheapest spill candidate.
            vertex = min(
                remaining,
                key=lambda v: (
                    graph.weight(v) / degrees[v] if degrees[v] > 0 else graph.weight(v),
                    str(v),
                ),
            )
            stack.append((vertex, True))
            potential_spills += 1
            remove(vertex)

        # Select phase: optimistic coloring.
        colors: Dict[Vertex, int] = {}
        spilled: Set[Vertex] = set()
        while stack:
            vertex, _ = stack.pop()
            used = {colors[u] for u in graph.neighbors(vertex) if u in colors}
            color = 0
            while color in used:
                color += 1
            if color < num_registers:
                colors[vertex] = color
            else:
                spilled.add(vertex)

        allocated = [v for v in graph.vertices() if v not in spilled]
        return self._result(
            problem,
            allocated,
            stats={
                "potential_spills": potential_spills,
                "actual_spills": len(spilled),
                "colors_used": (max(colors.values()) + 1) if colors else 0,
            },
        )


def _outcome(result: AllocationResult):
    return result.spilled, result.spill_cost, result.stats


def _assert_same(problem: AllocationProblem) -> None:
    expected = _outcome(ScanChaitinBriggs().allocate(problem))
    actual = _outcome(ChaitinBriggsAllocator().allocate(problem))
    assert actual == expected, (problem.name, problem.num_registers)


@pytest.mark.parametrize("suite", CORPUS_SUITES)
def test_corpus_matches_the_scan_formulation(suite):
    """One function per program of the suite, at every register count."""
    corpus = build_corpus(suite, seed=7, scale=0.1)
    assert len(corpus) >= 9
    for problem in corpus.problems:
        for registers in CORPUS_REGISTERS:
            _assert_same(problem.with_registers(registers))


def _random_graph(rng: random.Random, mode: str) -> Graph:
    """A G(n, p) graph inserted in shuffled order, so insertion, index and
    name order all differ; ``mode`` picks the weights."""
    n = rng.randint(1, 28)
    vertices: List[Vertex] = list(range(n)) if rng.random() < 0.3 else [f"v{i}" for i in range(n)]
    rng.shuffle(vertices)
    graph = Graph()
    for v in vertices:
        if mode == "generic":
            weight = rng.uniform(0.0, 100.0)
        elif mode == "equal":
            weight = 1.0
        elif mode == "zero":
            weight = 0.0
        else:
            weight = rng.choice((math.inf, math.inf, 0.0, 1.0, rng.uniform(0.0, 10.0)))
        graph.add_vertex(v, weight)
    edge_prob = rng.choice((0.1, 0.3, 0.5, 0.8))
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if rng.random() < edge_prob:
                graph.add_edge(u, v)
    return graph


@pytest.mark.parametrize("dense", [False, True], ids=["sets", "dense"])
@pytest.mark.parametrize("mode", WEIGHT_MODES)
def test_random_graphs_match_the_scan_formulation(mode, dense):
    rng = random.Random(f"gc-reference/{mode}")
    for case in range(RANDOM_GRAPHS_PER_MODE):
        graph = _random_graph(rng, mode)
        if dense:
            graph = graph.copy()
        problem = AllocationProblem(graph=graph, num_registers=0, name=f"{mode}-{case}")
        for registers in RANDOM_REGISTERS:
            _assert_same(problem.with_registers(registers))
