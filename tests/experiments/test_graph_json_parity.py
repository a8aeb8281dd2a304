"""Problems rebuilt from graph JSON allocate exactly like pipeline problems.

``ServiceBackend`` sends each sweep instance as graph JSON
(``graph_to_dict`` plus its live intervals, registers written ``%name``) and
the service rebuilds the graph with ``graph_from_dict``.  Every problem of
the Figures 8, 9, 10 and 14 corpora, taken through that round trip, must
keep the pipeline problem's digest and, for every allocator and register
count of the figure's grid, its spill cost, spill count, spill set and
stats.  The intervals are decoded back to registers here, so the linear
scans of Figure 14 read them as they read the pipeline's.
"""

import json

import pytest

from repro.alloc.problem import AllocationProblem
from repro.analysis.live_ranges import LiveInterval
from repro.experiments.figures import FIGURE_SPECS
from repro.experiments.runner import run_cells
from repro.graphs.io import graph_from_dict, graph_to_dict
from repro.ir.values import VirtualRegister
from repro.store.keys import problem_digest
from repro.workloads.corpus import build_corpus

SCALE = 0.1


def _through_json(problem: AllocationProblem) -> AllocationProblem:
    """``problem`` encoded and decoded the way a service batch member is."""
    graph = json.loads(json.dumps(graph_to_dict(problem.graph, name=problem.name)))
    intervals = json.loads(json.dumps([[str(i.register), i.start, i.end] for i in problem.intervals or ()]))
    return AllocationProblem(
        graph=graph_from_dict(graph),
        num_registers=problem.num_registers,
        name=problem.name,
        intervals=[
            LiveInterval(VirtualRegister(register.removeprefix("%")), start, end)
            for register, start, end in intervals
        ] or None,
    )


def _outcome(record):
    return record.allocator, record.num_registers, record.spill_cost, record.num_spilled, record.spilled, record.stats


@pytest.mark.parametrize("figure", ["figure8", "figure9", "figure10", "figure14"])
def test_graph_json_problems_allocate_like_pipeline_problems(figure):
    spec = FIGURE_SPECS[figure]
    corpus = build_corpus(spec.suite, target=spec.target, seed=2013, scale=SCALE)
    cells = [(registers, allocator) for registers in spec.register_counts for allocator in spec.allocators]
    for problem in corpus.problems:
        rebuilt = _through_json(problem)
        for target in (spec.target, None):
            assert problem_digest(rebuilt, target=target) == problem_digest(problem, target=target), problem.name
        expected = [_outcome(record) for record in run_cells(problem, cells)]
        assert [_outcome(record) for record in run_cells(rebuilt, cells)] == expected, problem.name
