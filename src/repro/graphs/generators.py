"""Random graph generators.

The synthetic workloads (see :mod:`repro.workloads`) derive interference
graphs from generated *programs*, which is the faithful path.  The generators
in this module produce weighted graphs directly and are used by:

* the property-based tests (random chordal / general graphs of known
  structure);
* micro-benchmarks that need graphs of a controlled size and density without
  paying the program-generation cost.

All generators take a :class:`random.Random` instance (or a seed) so every
experiment is reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import GraphError
from repro.graphs.graph import Graph, Vertex

RandomLike = Union[random.Random, int, None]


def _rng(seed_or_rng: RandomLike) -> random.Random:
    """Normalize a seed / Random / None into a Random instance."""
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _vertex_names(n: int, prefix: str = "v") -> List[str]:
    """Generate ``n`` stable vertex names: v0, v1, ..."""
    return [f"{prefix}{i}" for i in range(n)]


def _graph(names: List[str], weights: Sequence[float], edges: Iterable[Tuple[int, int]]) -> Graph:
    """The graph on ``names`` with the index-pair ``edges``, built as bitmask
    rows for one :meth:`Graph.from_rows` call."""
    rows = [0] * len(names)
    for i, j in edges:
        if i == j:
            raise GraphError(f"self-loop on {names[i]!r} is not allowed")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph.from_rows(names, rows, weights)


def random_weights(
    names: Sequence[Vertex],
    rng: RandomLike = None,
    low: float = 1.0,
    high: float = 100.0,
    loop_bias: float = 0.3,
) -> Dict[Vertex, float]:
    """Draw spill-cost weights with a loop-nest-like skew.

    A fraction ``loop_bias`` of the variables get their weight multiplied by
    10 or 100, mimicking accesses inside nested loops, which is the shape of
    real frequency-based spill costs.
    """
    r = _rng(rng)
    weights: Dict[Vertex, float] = {}
    for v in names:
        w = r.uniform(low, high)
        if r.random() < loop_bias:
            w *= 10.0 ** r.randint(1, 2)
        weights[v] = round(w, 3)
    return weights


def random_interval_graph(
    n: int,
    rng: RandomLike = None,
    max_length: int = 20,
    span: Optional[int] = None,
    weights: Optional[Dict[Vertex, float]] = None,
) -> Tuple[Graph, Dict[Vertex, Tuple[int, int]]]:
    """Generate a random interval graph (always chordal).

    Interval graphs model liveness within a single basic block: each variable
    is an interval ``[start, end)`` on the instruction axis and two variables
    interfere iff their intervals overlap.  Returns the graph and the interval
    map so callers (e.g. the linear-scan tests) can reuse the intervals.
    """
    r = _rng(rng)
    span = span if span is not None else max(4, n * 3)
    names = _vertex_names(n)
    intervals: Dict[Vertex, Tuple[int, int]] = {}
    for v in names:
        start = r.randint(0, span - 1)
        end = min(span, start + 1 + r.randint(0, max_length - 1))
        intervals[v] = (start, end)
    if weights is None:
        weights = random_weights(names, r)
    # u and v overlap iff each starts before the other ends: row u is the
    # vertices starting before u ends, AND those ending after u starts.
    spans = [intervals[v] for v in names]
    by_start = sorted(range(n), key=lambda i: spans[i][0])
    by_end = sorted(range(n), key=lambda i: spans[i][1])
    starts = [spans[i][0] for i in by_start]
    ends = [spans[i][1] for i in by_end]
    starting_before = [0] * (n + 1)  # [k]: the k earliest-starting vertices
    for k, i in enumerate(by_start):
        starting_before[k + 1] = starting_before[k] | 1 << i
    ending_after = [0] * (n + 1)  # [k]: all but the k earliest-ending vertices
    for k in range(n - 1, -1, -1):
        ending_after[k] = ending_after[k + 1] | 1 << by_end[k]
    rows = [
        starting_before[bisect_left(starts, end)] & ending_after[bisect_right(ends, start)] & ~(1 << i)
        for i, (start, end) in enumerate(spans)
    ]
    return Graph.from_rows(names, rows, [weights[v] for v in names]), intervals


def random_chordal_graph(
    n: int,
    rng: RandomLike = None,
    extra_edge_prob: float = 0.3,
    weights: Optional[Dict[Vertex, float]] = None,
) -> Graph:
    """Generate a random chordal graph by incremental simplicial insertion.

    Each new vertex is connected to a random clique of the existing graph,
    which preserves chordality by construction (the new vertex is simplicial
    at insertion time).  ``extra_edge_prob`` controls the expected size of the
    clique the new vertex attaches to and hence the density.
    """
    r = _rng(rng)
    names = _vertex_names(n)
    if weights is None:
        weights = random_weights(names, r)
    edges: List[Tuple[int, int]] = []
    cliques: List[List[int]] = []
    for v in range(n):
        if cliques and r.random() < 0.9:
            base = list(r.choice(cliques))
            keep = [u for u in base if r.random() < max(extra_edge_prob, 1.0 / max(len(base), 1))]
            if not keep and base:
                keep = [r.choice(base)]
            edges.extend((v, u) for u in keep)
            cliques.append(keep + [v])
        else:
            cliques.append([v])
    return _graph(names, [weights[v] for v in names], edges)


def random_general_graph(
    n: int,
    rng: RandomLike = None,
    edge_prob: float = 0.15,
    weights: Optional[Dict[Vertex, float]] = None,
) -> Graph:
    """Generate an Erdős–Rényi ``G(n, p)`` graph with spill-cost weights.

    Such graphs are typically non-chordal for moderate ``p`` and stand in for
    the interference graphs of non-SSA programs.
    """
    r = _rng(rng)
    names = _vertex_names(n)
    if weights is None:
        weights = random_weights(names, r)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if r.random() < edge_prob]
    return _graph(names, [weights[v] for v in names], edges)


def _unit_weights(names: List[str], weights: Optional[Dict[Vertex, float]]) -> List[float]:
    """``weights`` per name, 1.0 where it has none."""
    return [(weights or {}).get(v, 1.0) for v in names]


def cycle_graph(n: int, weights: Optional[Dict[Vertex, float]] = None) -> Graph:
    """Build the cycle ``C_n`` — the canonical non-chordal graph for n ≥ 4."""
    names = _vertex_names(n)
    return _graph(names, _unit_weights(names, weights), ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int, weights: Optional[Dict[Vertex, float]] = None) -> Graph:
    """Build the complete graph ``K_n`` (maximal register pressure everywhere)."""
    names = _vertex_names(n)
    return _graph(names, _unit_weights(names, weights), ((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n: int, weights: Optional[Dict[Vertex, float]] = None) -> Graph:
    """Build the path ``P_n`` (a tree, hence chordal and 2-colorable)."""
    names = _vertex_names(n)
    return _graph(names, _unit_weights(names, weights), ((i, i + 1) for i in range(n - 1)))
