"""The non-SSA lowering is the same whichever builder makes its guard graph.

``coalesce_copies`` merges copy-related webs only when the interference
graph of the lowered function has no edge between them.  The program builds
that graph with the dense kernel; these tests lower the same functions again
with the set-based reference builder (``tests/analysis/set_reference.py``,
over the set-based ``liveness``) patched in, and require byte-identical
lowered IR and identical problem digests of the non-SSA corpus built on it.
"""

import pytest

from repro.analysis import ssa_destruction
from repro.analysis.liveness import liveness
from repro.analysis.ssa_construction import construct_ssa
from repro.analysis.ssa_destruction import coalesce_copies, destruct_ssa
from repro.ir.printer import print_function
from repro.oracle.generator import generate_program
from repro.store.keys import problem_digest
from repro.workloads.corpus import build_corpus
from tests.analysis.set_reference import build_interference_graph


def _reference_guard(function, weights=None):
    return build_interference_graph(function, info=liveness(function), weights=weights)


def _use_reference_guard(monkeypatch):
    """Make ``coalesce_copies`` build its guard with the reference builder."""
    monkeypatch.setattr(ssa_destruction, "build_interference_graph_dense", _reference_guard)


def _lowered(functions):
    return [print_function(coalesce_copies(destruct_ssa(construct_ssa(fn)))) for fn in functions]


@pytest.mark.parametrize("seed,size,count", [(7, "small", 100), (13, "medium", 12)])
def test_lowering_of_oracle_programs_is_identical(monkeypatch, seed, size, count):
    functions = [generate_program(seed, index, size=size) for index in range(count)]
    dense = _lowered(functions)
    _use_reference_guard(monkeypatch)
    reference = _lowered(functions)
    for index, (ours, theirs) in enumerate(zip(dense, reference)):
        assert ours == theirs, f"program {index} of seed {seed} lowers differently"
    # The guard really decides something on these programs.
    assert any(".cw" in text for text in dense)


def _corpus_digests(seed):
    corpus = build_corpus("specjvm98", seed=seed)
    return [problem_digest(problem, target=corpus.target) for problem in corpus]


@pytest.mark.parametrize("seed", [2013, 1, 2])
def test_specjvm98_corpus_digests_are_identical(monkeypatch, seed):
    dense = _corpus_digests(seed)
    _use_reference_guard(monkeypatch)
    assert _corpus_digests(seed) == dense
