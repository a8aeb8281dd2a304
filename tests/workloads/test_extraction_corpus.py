"""Tests for problem extraction (the pipeline front end) and corpus construction."""

import pytest

from repro.alloc import get_allocator
from repro.alloc.verify import check_allocation
from repro.graphs.chordal import is_chordal
from repro.targets import get_target
from repro.workloads.corpus import build_corpus
from repro.workloads.programs import GeneratorProfile, generate_function
from tests.conftest import front_end_problem


@pytest.fixture(scope="module")
def sample_function():
    return generate_function("sample", GeneratorProfile(statements=30, accumulators=6, loop_depth=2), rng=42)


def test_chordal_extraction_produces_chordal_graph(sample_function):
    problem = front_end_problem(sample_function)
    assert problem.is_chordal
    assert is_chordal(problem.graph)
    assert problem.num_registers == get_target("st231").num_registers
    assert problem.intervals is not None
    assert len(problem.graph) > 0


def test_chordal_extraction_weights_are_positive(sample_function):
    problem = front_end_problem(sample_function)
    assert all(problem.graph.weight(v) >= 0 for v in problem.graph.vertices())
    assert problem.total_weight > 0


def test_general_extraction_uses_coalesced_names(sample_function):
    problem = front_end_problem(sample_function, "jikesrvm-ia32", ssa=False)
    assert any(str(v).endswith(".web") for v in problem.graph.vertices())


def test_extraction_accepts_target_objects(sample_function):
    target = get_target("armv7-a8")
    problem = front_end_problem(sample_function, target, name="custom")
    assert problem.name == "custom"
    assert problem.num_registers == 16


def test_extracted_problem_is_allocatable(sample_function):
    problem = front_end_problem(sample_function).with_registers(4)
    result = get_allocator("BFPL").allocate(problem)
    assert check_allocation(problem, result).feasible


def test_general_extraction_load_store_costs_scale(sample_function):
    cheap_target = get_target("st231")
    problem = front_end_problem(sample_function, cheap_target)
    assert problem.total_weight > 0


# ---------------------------------------------------------------------- #
# corpus
# ---------------------------------------------------------------------- #
def test_build_corpus_lao_kernels_is_chordal_and_deterministic():
    corpus_a = build_corpus("lao_kernels", seed=5)
    corpus_b = build_corpus("lao_kernels", seed=5)
    assert len(corpus_a) == len(corpus_b) == 10
    assert all(problem.is_chordal for problem in corpus_a)
    for pa, pb in zip(corpus_a, corpus_b):
        assert len(pa.graph) == len(pb.graph)
        assert pa.graph.num_edges() == pb.graph.num_edges()


def test_build_corpus_scale_reduces_instances():
    full = build_corpus("eembc", seed=3)
    half = build_corpus("eembc", seed=3, scale=0.5)
    assert len(half) <= len(full)
    assert len(half) >= len(full) // 2  # at least one function per program


def test_build_corpus_program_grouping():
    corpus = build_corpus("lao_kernels", seed=2)
    grouped = corpus.by_program()
    assert set(grouped) == set(corpus.program_of.values())
    assert sum(len(problems) for problems in grouped.values()) == len(corpus)


def test_build_corpus_summary_fields():
    corpus = build_corpus("lao_kernels", seed=2)
    summary = corpus.summary()
    assert summary["instances"] == len(corpus)
    assert summary["max_pressure"] >= summary["mean_pressure"] > 0
    assert summary["max_variables"] >= summary["mean_variables"] > 0


def test_build_corpus_specjvm98_has_non_chordal_graphs():
    corpus = build_corpus("specjvm98", seed=2013)
    assert len(corpus) > 0
    non_chordal = sum(1 for problem in corpus if not problem.is_chordal)
    # The φ-web and move coalescing must produce a substantial fraction of
    # genuinely general (non-chordal) graphs, as in the paper's JVM study.
    assert non_chordal >= max(2, len(corpus) // 4)


def test_build_corpus_respects_target_override():
    corpus = build_corpus("eembc", target="armv7-a8", seed=1, scale=0.3)
    assert corpus.target == "armv7-a8"
    assert all(problem.num_registers == 16 for problem in corpus)


def test_empty_summary_for_empty_corpus():
    from repro.workloads.corpus import Corpus

    assert Corpus(suite="x", target="y", seed=0).summary() == {"instances": 0}
