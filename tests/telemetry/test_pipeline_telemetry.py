"""End-to-end telemetry: engine spans, pool merging, store counters, oracle.

These tests pin the instrumentation contract of the whole stack: where spans
nest, which counters exist, that pool workers lose nothing (neither their
telemetry nor their per-stage timings), and that none of it changes results.
"""

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.report import render_cache_split
from repro.oracle import CampaignConfig, run_campaign
from repro.pipeline import Pipeline
from repro.store import open_store
from repro.telemetry.tracer import Tracer, use_tracer
from repro.workloads.corpus import build_corpus
from repro.workloads.programs import GeneratorProfile, generate_function


def _batch(count=4, statements=30):
    return [
        generate_function(f"tele_fn{i}", GeneratorProfile(statements=statements, accumulators=6), rng=i)
        for i in range(count)
    ]


# ---------------------------------------------------------------------- #
# engine spans
# ---------------------------------------------------------------------- #
def test_traced_run_nests_pipeline_pass_and_allocator_spans():
    tracer = Tracer()
    pipe = Pipeline.from_spec("BFPL", target="st231", registers=4)
    with use_tracer(tracer):
        context = pipe.run(_batch(count=1)[0])
    assert context.result is not None
    snapshot = tracer.snapshot()

    runs = snapshot.find("pipeline:run")
    assert len(runs) == 1 and runs[0].parent_id == 0
    assert runs[0].attrs["allocator"] == "BFPL" and runs[0].attrs["registers"] == 4
    assert runs[0].attrs["spilled"] == len(context.result.spilled)

    pass_spans = [e for e in snapshot.events if e.category == "pass"]
    assert [e.name for e in pass_spans] == [f"pass:{stage}" for stage in pipe.stages]
    assert all(e.parent_id == runs[0].span_id and e.depth == 1 for e in pass_spans)
    # Pass spans carry the stage_stats annotations (scalar subset).
    allocate_span = snapshot.find("pass:allocate")[0]
    assert allocate_span.attrs.get("allocator") == "BFPL"

    # Allocator-internal phase spans nest under pass:allocate (BFPL = FPL).
    for name in ("alloc:layered_phase", "alloc:fixed_point_phase"):
        phases = snapshot.find(name)
        assert len(phases) == 1 and phases[0].parent_id == allocate_span.span_id
    assert snapshot.counters["alloc.frank.calls"] >= 1
    # Both phases run NL's layering loop, one alloc:layer span per round.
    phase_ids = {snapshot.find(name)[0].span_id for name in ("alloc:layered_phase", "alloc:fixed_point_phase")}
    rounds = snapshot.find("alloc:layer")
    assert rounds and {e.parent_id for e in rounds} <= phase_ids
    layers = snapshot.find("alloc:layered_phase")[0].attrs["layers"]
    assert snapshot.counters["alloc.layered.rounds"] == layers >= 1
    # Run-level store counters are declared even on storeless runs.
    assert snapshot.counters["store.hit"] == 0
    assert snapshot.counters["store.miss"] == 0
    assert all(event.closed for event in snapshot.events)


def test_traced_run_fingerprint_is_deterministic():
    def fingerprint():
        tracer = Tracer()
        pipe = Pipeline.from_spec("NL", target="st231", registers=4)
        with use_tracer(tracer):
            pipe.run_many(_batch(count=2))
        snapshot = tracer.snapshot()
        return (
            snapshot.span_names(),
            [(e.span_id, e.parent_id, e.depth, e.lane) for e in snapshot.events],
            snapshot.counters,
        )

    assert fingerprint() == fingerprint()


def test_untraced_run_records_nothing():
    tracer = Tracer()
    pipe = Pipeline.from_spec("NL", target="st231", registers=4)
    pipe.run(_batch(count=1)[0])  # no use_tracer binding
    snapshot = tracer.snapshot()
    assert snapshot.events == [] and snapshot.counters == {}


def test_explicit_tracer_wins_over_ambient():
    explicit = Tracer()
    ambient = Tracer()
    pipe = Pipeline.from_spec("NL", target="st231", registers=4, tracer=explicit)
    with use_tracer(ambient):
        pipe.run(_batch(count=1)[0])
    assert explicit.snapshot().find("pipeline:run")
    assert ambient.snapshot().events == []


# ---------------------------------------------------------------------- #
# pool workers: telemetry merges, timings survive (serial/parallel parity)
# ---------------------------------------------------------------------- #
def test_run_many_parallel_merges_worker_spans_into_lanes():
    functions = _batch(count=4)
    tracer = Tracer()
    pipe = Pipeline.from_spec("NL", target="st231", registers=4)
    with use_tracer(tracer):
        contexts = pipe.run_many(functions, jobs=2)
    assert len(contexts) == len(functions)
    snapshot = tracer.snapshot()

    batch = snapshot.find("pipeline:run_many")
    assert len(batch) == 1 and batch[0].attrs["jobs"] == 2
    runs = snapshot.find("pipeline:run")
    assert len(runs) == len(functions)
    # Worker spans attach under the batch span, each worker on its own lane.
    assert all(run.parent_id == batch[0].span_id for run in runs)
    assert {run.lane for run in runs} == {1, 2}
    assert snapshot.lanes == {0: "main", 1: "worker-0", 2: "worker-1"}


def test_run_many_serial_and_parallel_telemetry_parity():
    functions = _batch(count=4)

    def run(jobs):
        tracer = Tracer()
        pipe = Pipeline.from_spec("NL", target="st231", registers=4)
        with use_tracer(tracer):
            contexts = pipe.run_many(functions, jobs=jobs)
        return contexts, tracer.snapshot()

    serial_contexts, serial_snapshot = run(1)
    parallel_contexts, parallel_snapshot = run(2)

    # Same spans (lanes aside), same counters.
    assert sorted(serial_snapshot.span_names()) == sorted(parallel_snapshot.span_names())
    assert serial_snapshot.counters == parallel_snapshot.counters

    # Same results, and crucially the *same observability payload* per
    # context: pool workers must not lose their per-stage timings or stats.
    for serial_ctx, parallel_ctx in zip(serial_contexts, parallel_contexts):
        assert parallel_ctx.name == serial_ctx.name
        assert set(parallel_ctx.timings) == set(serial_ctx.timings)
        assert all(seconds >= 0.0 for seconds in parallel_ctx.timings.values())
        assert parallel_ctx.stage_stats == serial_ctx.stage_stats
        assert parallel_ctx.result.spilled == serial_ctx.result.spilled


def test_tracing_does_not_change_results():
    functions = _batch(count=3)
    pipe = Pipeline.from_spec("BFPL", target="st231", registers=4)
    plain = pipe.run_many(functions)
    tracer = Tracer()
    with use_tracer(tracer):
        traced = pipe.run_many(functions)
    for plain_ctx, traced_ctx in zip(plain, traced):
        assert traced_ctx.result.spilled == plain_ctx.result.spilled
        assert traced_ctx.rewritten_ir() == plain_ctx.rewritten_ir()


# ---------------------------------------------------------------------- #
# store counters and the per-allocator cache split
# ---------------------------------------------------------------------- #
@pytest.fixture
def small_corpus():
    return build_corpus("eembc", seed=11, scale=0.1)


def _sweep(store, corpus, jobs=1):
    config = ExperimentConfig(allocators=["NL", "BFPL"], register_counts=[4], jobs=jobs)
    return run_experiment(corpus, config, store=store)


def test_store_backend_and_run_level_counters(tmp_path, small_corpus):
    tracer = Tracer()
    with open_store(str(tmp_path / "cells.sqlite")) as store:
        with use_tracer(tracer):
            _sweep(store, small_corpus)  # cold: everything misses
            _sweep(store, small_corpus)  # warm: everything hits
    counters = tracer.snapshot().counters
    cells = 2 * len(small_corpus)
    assert counters["store.hit"] == cells
    assert counters["store.miss"] == cells
    # Backend-level counters (per batched key) from the store base class.
    assert counters["store.sqlite.miss"] >= 1
    assert counters["store.sqlite.hit"] >= 1
    assert counters["store.sqlite.put"] == cells
    assert counters["store.sqlite.flush"] >= 1
    # Sweep cells appear as spans — cold run only; warm cells are served
    # from the store without re-entering the allocator.
    assert len(tracer.snapshot().find("sweep:cell")) == cells


def test_manifest_cache_split_per_allocator(tmp_path, small_corpus):
    with open_store(str(tmp_path / "cells.sqlite")) as store:
        _sweep(store, small_corpus)
        cold = store.manifests()[-1]
        _sweep(store, small_corpus)
        warm = store.manifests()[-1]
    instances = len(small_corpus)
    assert cold.cache_by_allocator == {
        "BFPL": {"hit": 0, "miss": instances},
        "NL": {"hit": 0, "miss": instances},
    }
    assert warm.cache_by_allocator == {
        "BFPL": {"hit": instances, "miss": 0},
        "NL": {"hit": instances, "miss": 0},
    }
    # Round-trips through the manifest store (from_dict keeps the field).
    assert warm.hit_rate == 1.0


def test_cache_split_survives_parallel_sweep(tmp_path, small_corpus):
    with open_store(str(tmp_path / "cells.sqlite")) as store:
        _sweep(store, small_corpus, jobs=2)
        manifest = store.manifests()[-1]
    instances = len(small_corpus)
    assert manifest.cache_by_allocator == {
        "BFPL": {"hit": 0, "miss": instances},
        "NL": {"hit": 0, "miss": instances},
    }


def test_render_cache_split_table_and_pre_split_fallback(tmp_path, small_corpus):
    with open_store(str(tmp_path / "cells.sqlite")) as store:
        _sweep(store, small_corpus)
        manifest = store.manifests()[-1]
    text = render_cache_split(manifest)
    assert "allocator" in text and "hit" in text and "miss" in text
    assert "NL" in text and "BFPL" in text and "0.000" in text

    # A pre-field manifest (loaded from an old store) falls back cleanly.
    manifest.cache_by_allocator = {}
    fallback = render_cache_split(manifest)
    assert "pre-split manifest" in fallback
    assert f"{manifest.cells_cached}/{manifest.cells_total}" in fallback


# ---------------------------------------------------------------------- #
# oracle campaigns
# ---------------------------------------------------------------------- #
def test_traced_oracle_campaign_serial_and_parallel():
    config = CampaignConfig(seed=5, count=4, allocators=("NL",), targets=("st231",))

    def run(jobs):
        tracer = Tracer()
        result = run_campaign(
            CampaignConfig(**{**config.__dict__, "jobs": jobs}), tracer=tracer
        )
        return result, tracer.snapshot()

    serial_result, serial_snapshot = run(1)
    parallel_result, parallel_snapshot = run(2)
    assert serial_result.passed and parallel_result.passed
    assert serial_result.checks == parallel_result.checks == 4

    for snapshot in (serial_snapshot, parallel_snapshot):
        campaign = snapshot.find("oracle:campaign")
        assert len(campaign) == 1 and campaign[0].attrs["programs"] == 4
        programs = snapshot.find("oracle:program")
        assert len(programs) == 4
        assert all(p.attrs["failures"] == 0 for p in programs)
        assert snapshot.counters["oracle.checks"] == 4
        assert snapshot.counters["oracle.ok"] == 4
        assert snapshot.counters["oracle.failures"] == 0
    # Serial programs nest under the campaign span; parallel ones sit on
    # worker lanes but still under it.
    assert sorted(serial_snapshot.span_names()) == sorted(parallel_snapshot.span_names())
    assert parallel_snapshot.lanes == {0: "main", 1: "worker-0", 2: "worker-1"}
