"""The dense front-end kernel must be indistinguishable from the set-based
reference through every pipeline observable: results, stats, rewritten IR,
problem digests and store cells.

The reference run builds the front-end context from the set-based kernels
(:func:`tests.pipeline.conftest.legacy_front_end`) and enters the same chain
at ``extract``.
"""

import pytest

from repro.oracle.generator import generate_program
from repro.pipeline import Pipeline, PipelineContext
from repro.pipeline.spec import PipelineSpec
from repro.store.keys import problem_digest
from repro.workloads.programs import GeneratorProfile, generate_function
from tests.pipeline.conftest import legacy_front_end


def _functions():
    fns = [generate_program(11, i, size="small") for i in range(4)]
    fns.append(
        generate_function(
            "parity_med", GeneratorProfile(statements=80, accumulators=12, loop_depth=2), rng=3
        )
    )
    return fns


def _spec(allocator, ssa):
    return PipelineSpec(allocator=allocator, target="st231", registers=4, ssa=ssa)


def _run(fn, allocator, ssa, store=None):
    """The pipeline end to end (the dense kernel)."""
    with Pipeline(_spec(allocator, ssa), store=store) as pipe:
        return pipe.run(fn)


def _run_reference(fn, allocator, ssa, store=None):
    """The same chain on the set-based front end, entered at ``extract``."""
    spec = _spec(allocator, ssa)
    target = spec.resolve_target()
    context = PipelineContext(
        function=fn,
        name=fn.name,
        target=target,
        num_registers=spec.registers,
        **legacy_front_end(fn, target, ssa),
    )
    with Pipeline(spec, store=store) as pipe:
        return pipe.run_context(context)


@pytest.mark.parametrize("allocator", ["NL", "BFPL"])
@pytest.mark.parametrize("ssa", [True, False])
def test_dense_and_reference_pipelines_are_byte_identical(allocator, ssa):
    from repro.errors import NotChordalError

    for fn in _functions():
        try:
            dense_ctx = _run(fn, allocator, ssa)
        except NotChordalError:
            with pytest.raises(NotChordalError):
                _run_reference(fn, allocator, ssa)
            continue
        ref_ctx = _run_reference(fn, allocator, ssa)
        assert dense_ctx.graph.vertices() == ref_ctx.graph.vertices()
        assert dense_ctx.graph.rows() == ref_ctx.graph.rows()
        assert dense_ctx.result.spilled == ref_ctx.result.spilled
        assert dense_ctx.result.allocated == ref_ctx.result.allocated
        assert dense_ctx.result.spill_cost == ref_ctx.result.spill_cost
        assert dense_ctx.result.stats == ref_ctx.result.stats
        assert dense_ctx.assignment == ref_ctx.assignment
        assert dense_ctx.rewritten_ir() == ref_ctx.rewritten_ir()
        assert dense_ctx.intervals == ref_ctx.intervals
        assert dense_ctx.problem.cliques == ref_ctx.problem.cliques
        assert dense_ctx.problem.max_pressure == ref_ctx.problem.max_pressure
        assert problem_digest(dense_ctx.problem, target="st231") == problem_digest(
            ref_ctx.problem, target="st231"
        )


def test_reference_pipeline_hits_cells_warmed_by_the_dense_kernel(tmp_path):
    """Digest parity, end to end: a store warmed by the dense kernel serves
    the set-based reference (and vice versa) without an allocator call."""
    store = str(tmp_path / "cross.sqlite")
    fn = _functions()[0]
    warm = _run(fn, "NL", True, store=store)
    assert warm.stage_stats["allocate"]["cache"] == "miss"
    served = _run_reference(fn, "NL", True, store=store)
    assert served.stage_stats["allocate"]["cache"] == "hit"
    assert served.result.spilled == warm.result.spilled
    # and the reverse direction
    fn2 = _functions()[1]
    warm2 = _run_reference(fn2, "NL", True, store=store)
    assert warm2.stage_stats["allocate"]["cache"] == "miss"
    served2 = _run(fn2, "NL", True, store=store)
    assert served2.stage_stats["allocate"]["cache"] == "hit"
