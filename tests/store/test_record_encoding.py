"""``record_to_dict`` builds the record's dict field by field; it must equal
``dataclasses.asdict`` and serialize to the same JSON bytes, for records of
every registered allocator, for nested constrained stats and for
``spilled=None``."""

import dataclasses
import json

import pytest

from repro.alloc.base import available_allocators, get_allocator
from repro.alloc.constraints import ProblemConstraints
from repro.alloc.problem import AllocationProblem
from repro.experiments.runner import InstanceRecord
from repro.graphs.graph import Graph
from repro.store import record_from_dict, record_to_dict
from repro.workloads.corpus import build_corpus


def _assert_encodes_like_asdict(record: InstanceRecord) -> None:
    encoded = record_to_dict(record)
    expected = dataclasses.asdict(record)
    assert encoded == expected
    assert json.dumps(encoded, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert json.dumps(encoded) == json.dumps(expected)
    assert record_from_dict(encoded) == record


def _record(problem: AllocationProblem, name: str) -> InstanceRecord:
    result = get_allocator(name).allocate(problem)
    return InstanceRecord.from_result(
        problem, result, instance=problem.name, program="prog", allocator=name, elapsed=0.25
    )


@pytest.fixture(scope="module")
def corpus_problem():
    corpus = build_corpus("specjvm98", seed=7, scale=0.1)
    return max(corpus.problems, key=lambda problem: len(problem.graph)).with_registers(4)


@pytest.mark.parametrize("name", available_allocators())
def test_every_allocators_record_encodes_like_asdict(corpus_problem, name):
    record = _record(corpus_problem, name)
    assert record.spilled
    _assert_encodes_like_asdict(record)


def test_constrained_record_with_nested_register_layers():
    graph = Graph()
    for vertex, weight in zip("abcd", (3.0, 2.0, 1.0, 4.0)):
        graph.add_vertex(vertex, weight)
    for u, v in (("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")):
        graph.add_edge(u, v)
    constraints = ProblemConstraints(
        registers=("x5", "x6", "x7"),
        classes=(("low", ("x5", "x6")),),
        var_class=(("a", "low"),),
        pre_colored=(("b", "x7"),),
        aliases=(),
    )
    problem = AllocationProblem(graph=graph, num_registers=2, name="c", constraints=constraints)
    record = _record(problem, "FPL")
    assert isinstance(record.stats["register_layers"], dict)
    _assert_encodes_like_asdict(record)
    # The encoding shares no container with the record.
    encoded = record_to_dict(record)
    encoded["stats"]["register_layers"]["x5"].append("z")
    encoded["spilled"].append("z")
    assert "z" not in record.stats["register_layers"]["x5"]
    assert "z" not in record.spilled


def test_record_without_spill_set():
    record = InstanceRecord(
        instance="s/p/fn0",
        program="p",
        allocator="NL",
        num_registers=2,
        spill_cost=3.5,
        num_spilled=1,
        num_variables=7,
        max_pressure=4,
        runtime_seconds=0.01,
        stats={"layers": 2, "ratio": float("inf")},
        spilled=None,
    )
    _assert_encodes_like_asdict(record)
