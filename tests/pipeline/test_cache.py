"""Allocate-stage memoization: one cache shared with the experiment store."""

import dataclasses

import pytest

from repro.alloc.base import register_allocator
from repro.alloc.layered import LayeredOptimalAllocator
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.pipeline import Pipeline, allocate_cell_key, result_from_record
from repro.store import open_store
from repro.workloads.corpus import Corpus
from repro.workloads.programs import GeneratorProfile, generate_function
from tests.conftest import front_end_problem


class _CountingNL(LayeredOptimalAllocator):
    """NL with a call counter, keyed separately so cells never collide."""

    name = "counting-NL"
    calls = 0

    def allocate(self, problem):
        type(self).calls += 1
        return super().allocate(problem)


register_allocator("counting-NL", _CountingNL)


def _functions(count=4):
    return [
        generate_function(f"fn{i}", GeneratorProfile(statements=25, accumulators=5), rng=i)
        for i in range(count)
    ]


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "cache.sqlite")


def test_warm_run_many_performs_zero_allocate_calls(store_path):
    fns = _functions(5)
    pipe = Pipeline.from_spec("counting-NL", target="st231", registers=3, store=store_path)
    _CountingNL.calls = 0
    cold = pipe.run_many(fns)
    assert _CountingNL.calls == len(fns)
    warm = pipe.run_many(fns)
    assert _CountingNL.calls == len(fns), "warm batch must not invoke the allocator"
    pipe.close()
    assert all(c.stage_stats["allocate"]["cache"] == "hit" for c in warm)
    assert [c.result.spilled for c in cold] == [c.result.spilled for c in warm]
    assert [c.rewritten_ir() for c in cold] == [c.rewritten_ir() for c in warm]


def test_warm_parallel_batch_hits_through_the_store_file(store_path):
    fns = _functions(6)
    with Pipeline.from_spec("BFPL", target="st231", registers=3, store=store_path) as pipe:
        cold = pipe.run_many(fns, jobs=2)
        warm = pipe.run_many(fns, jobs=2)
    assert all(c.stage_stats["allocate"]["cache"] == "miss" for c in cold)
    assert all(c.stage_stats["allocate"]["cache"] == "hit" for c in warm)
    assert [c.rewritten_ir() for c in cold] == [c.rewritten_ir() for c in warm]


def test_sweep_warms_the_engine_and_the_engine_warms_the_sweep(store_path):
    """The engine and run_experiment address the very same cells."""
    fns = _functions(3)
    problems = [front_end_problem(fn, name=f"suite/prog/{fn.name}") for fn in fns]
    corpus = Corpus(
        suite="suite",
        target="st231",
        seed=0,
        problems=problems,
        program_of={i: "prog" for i in range(len(problems))},
    )
    config = ExperimentConfig(allocators=["NL"], register_counts=[3])

    # Sweep first: the engine must then serve every allocate from the store.
    with open_store(store_path) as store:
        run_experiment(corpus, config, store=store)
        engine = Pipeline.from_spec("NL", target="st231", registers=3, store=store)
        contexts = engine.run_many(fns)
        assert all(c.stage_stats["allocate"]["cache"] == "hit" for c in contexts)

        # And the other direction: engine-computed cells count as sweep hits.
        fresh = generate_function("fresh", GeneratorProfile(statements=25, accumulators=5), rng=99)
        engine.run(fresh)
        problems2 = problems + [front_end_problem(fresh, name="suite/prog/fresh")]
        corpus2 = Corpus(
            suite="suite",
            target="st231",
            seed=0,
            problems=problems2,
            program_of={i: "prog" for i in range(len(problems2))},
        )
        run_experiment(corpus2, config, store=store)
        manifest = store.manifests()[-1]
        assert manifest.cells_cached == len(problems2)
        assert manifest.cells_computed == 0


def test_parallel_batch_dedups_duplicate_inputs(store_path):
    """The same function twice in one parallel batch persists one cell."""
    fn = _functions(1)[0]
    with Pipeline.from_spec("NL", target="st231", registers=3, store=store_path) as pipe:
        pipe.run_many([fn, fn], jobs=2)
        assert len(pipe.store) == 1


def test_pre_engine_records_without_spill_sets_are_cache_misses(store_path):
    fn = _functions(1)[0]
    with Pipeline.from_spec("NL", target="st231", registers=3, store=store_path) as pipe:
        cold = pipe.run(fn)
        assert cold.stage_stats["allocate"]["cache"] == "miss"
        # Strip the spill set, as a record written before the engine existed.
        key = allocate_cell_key(
            cold.problem, _allocator("NL"), target=cold.target.name
        )
        record = pipe.store.get(key)
        assert record is not None and record.spilled is not None
        pipe.store.put(key, dataclasses.replace(record, spilled=None))
        degraded = pipe.run(fn)
        assert degraded.stage_stats["allocate"]["cache"] == "miss"
        assert degraded.result.spilled == cold.result.spilled


def test_result_from_record_rejects_foreign_vertex_names(store_path):
    fn = _functions(1)[0]
    with Pipeline.from_spec("NL", target="st231", registers=3, store=store_path) as pipe:
        ctx = pipe.run(fn)
        key = allocate_cell_key(ctx.problem, _allocator("NL"), target="st231")
        record = pipe.store.get(key)
    broken = dataclasses.replace(record, spilled=["no-such-variable"])
    assert result_from_record(broken, ctx.problem) is None


def _allocator(name):
    from repro.alloc.base import get_allocator

    return get_allocator(name)
