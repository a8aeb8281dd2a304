"""Pipeline benchmarks: compiler substrate plus the pass-pipeline engine.

Not a paper figure.  The first half measures the cost of the surrounding
compiler substrate (SSA construction, liveness, extraction) so the allocator
timings of ``bench_scaling`` can be put in context (the paper's JIT argument
is that allocation must stay a small fraction of compile time).  The second
half benchmarks the :class:`repro.pipeline.Pipeline` engine itself: a full
end-to-end run, a per-stage timing breakdown, and the warm-vs-cold
allocate-stage cache — including the acceptance assertion that a warm batch
rerun performs **zero** allocate-stage calls.

The file doubles as the **dense-kernel perf-smoke gate**::

    PYTHONPATH=src:. python benchmarks/bench_pipeline.py \
        --stages liveness,interference --min-speedup 2.0

times the named front-end stages on a fixed-seed large function through the
pipeline (the dense bitset kernel) against the same work done by the
set-based reference kernels (``liveness`` and the test-local builders of
``tests/analysis/set_reference.py``, hence the repo root on the path), fails
unless the dense kernel clears the speedup floor, and asserts the two
kernels produce byte-identical problem digests and interchangeable
warm-store cells (the same check
``test_dense_front_end_speedup_at_large_scale`` runs under pytest with the
conservative 2x CI floor; the local target at the largest shipped scale is
>= 3x).
"""

import pytest

from repro.alloc.base import register_allocator
from repro.alloc.layered import LayeredOptimalAllocator
from repro.analysis.interference import build_interference_graph
from repro.analysis.liveness import liveness
from repro.analysis.ssa_construction import construct_ssa
from repro.graphs.stable_set import maximum_weighted_stable_set
from repro.graphs.generators import random_chordal_graph
from repro.pipeline import Pipeline
from repro.workloads.programs import GeneratorProfile, generate_function

#: the front-end slice of the canonical stage chain.
FRONT_END_STAGES = ("liveness", "interference", "extract")


@pytest.fixture(scope="module")
def medium_function():
    profile = GeneratorProfile(statements=120, accumulators=16, loop_depth=3)
    return generate_function("bench_medium", profile, rng=2013)


@pytest.fixture(scope="module")
def medium_ssa(medium_function):
    return construct_ssa(medium_function)


def test_ssa_construction(benchmark, medium_function):
    benchmark(construct_ssa, medium_function)


def test_liveness_analysis(benchmark, medium_ssa):
    benchmark(liveness, medium_ssa)


def test_interference_graph_construction(benchmark, medium_ssa):
    benchmark(build_interference_graph, medium_ssa)


def test_full_extraction_pipeline(benchmark, medium_function):
    pipe = Pipeline.from_spec(target="st231", stages=FRONT_END_STAGES)
    benchmark(pipe.run, medium_function)


def test_franks_algorithm_on_large_chordal_graph(benchmark):
    graph = random_chordal_graph(1000, rng=7, extra_edge_prob=0.4)
    benchmark(maximum_weighted_stable_set, graph)


# ---------------------------------------------------------------------- #
# pass-pipeline engine benchmarks
# ---------------------------------------------------------------------- #
def _batch(count=8, statements=60, accumulators=10):
    return [
        generate_function(
            f"bench_fn{i}", GeneratorProfile(statements=statements, accumulators=accumulators), rng=i
        )
        for i in range(count)
    ]


def test_engine_end_to_end_single_function(benchmark, medium_function):
    pipe = Pipeline.from_spec("NL", target="st231", registers=8)
    context = benchmark(pipe.run, medium_function)
    assert context.report is not None and context.report.feasible


def test_engine_per_stage_timing_breakdown(medium_function, capsys):
    """Report where the wall time goes, stage by stage (not a timing assert)."""
    pipe = Pipeline.from_spec("NL", target="st231", registers=8)
    context = pipe.run(medium_function)
    total = sum(context.timings.values()) or 1.0
    with capsys.disabled():
        print("\nper-stage timing breakdown (NL @ st231, R=8):")
        for stage, seconds in context.timings.items():
            print(f"  {stage:<14} {seconds * 1e3:8.3f} ms  {100 * seconds / total:5.1f}%")
    assert set(context.timings) == set(pipe.stages)
    assert all(seconds >= 0.0 for seconds in context.timings.values())


def test_engine_warm_vs_cold_allocate_cache(tmp_path, capsys):
    """Warm batch reruns must serve every allocate stage from the store."""

    class _CountingBenchNL(LayeredOptimalAllocator):
        name = "bench-counting-NL"
        calls = 0

        def allocate(self, problem):
            type(self).calls += 1
            return super().allocate(problem)

    register_allocator("bench-counting-NL", _CountingBenchNL)
    functions = _batch()
    store_path = str(tmp_path / "bench_cache.sqlite")

    import time

    with Pipeline.from_spec(
        "bench-counting-NL", target="st231", registers=6, store=store_path
    ) as pipe:
        started = time.perf_counter()
        cold = pipe.run_many(functions)
        cold_seconds = time.perf_counter() - started
        assert _CountingBenchNL.calls == len(functions)

        started = time.perf_counter()
        warm = pipe.run_many(functions)
        warm_seconds = time.perf_counter() - started

    # The acceptance assertion: zero allocate-stage calls on the warm rerun.
    assert _CountingBenchNL.calls == len(functions), (
        "warm batch rerun invoked the allocator "
        f"{_CountingBenchNL.calls - len(functions)} time(s)"
    )
    assert all(c.stage_stats["allocate"]["cache"] == "hit" for c in warm)
    assert [c.rewritten_ir() for c in cold] == [c.rewritten_ir() for c in warm]
    cold_alloc = sum(c.timings["allocate"] for c in cold)
    warm_alloc = sum(c.timings["allocate"] for c in warm)
    with capsys.disabled():
        print(
            f"\nallocate-stage cache: cold {cold_seconds * 1e3:.1f} ms total "
            f"({cold_alloc * 1e3:.1f} ms allocating), warm {warm_seconds * 1e3:.1f} ms "
            f"({warm_alloc * 1e3:.1f} ms serving hits)"
        )


def test_engine_batch_throughput(benchmark):
    functions = _batch(count=4, statements=40, accumulators=8)
    pipe = Pipeline.from_spec("BFPL", target="st231", registers=6, verify=False)
    contexts = benchmark(pipe.run_many, functions)
    assert len(contexts) == len(functions)


# ---------------------------------------------------------------------- #
# dense bitset kernel: perf-smoke gate + equivalence assertions
# ---------------------------------------------------------------------- #
#: the largest shipped benchmark scale (the acceptance scale for the dense
#: kernel's >= 3x local speedup target).
LARGE_PROFILE = dict(statements=1000, accumulators=80, loop_depth=4)
FIXED_SEED = 2013
DENSE_STAGES = ("liveness", "interference")


def _time_stages(pipe, function, stages, repeat):
    """Best-of-``repeat`` sum of the named stage timings (and the last context)."""
    best = float("inf")
    context = None
    for _ in range(repeat):
        context = pipe.run(function)
        elapsed = sum(context.timings[stage] for stage in stages)
        best = min(best, elapsed)
    return best, context


def _time_reference_stages(function, target, stages, repeat):
    """Best-of-``repeat`` time of the set-based kernels doing the named
    stages' work, and the front-end context of the last run.

    ``liveness`` is SSA construction, liveness and spill costs;
    ``interference`` is the interference graph and the live intervals —
    what the two pipeline stages do, on the reference kernels.  The
    context carries the ``DenseLivenessInfo`` the pipeline does, computed
    outside the timed region.
    """
    import time

    from repro.analysis.dense import dense_liveness
    from repro.analysis.spill_costs import spill_costs
    from repro.pipeline import PipelineContext
    from tests.analysis import set_reference

    best = float("inf")
    context = None
    for _ in range(repeat):
        started = time.perf_counter()
        lowered = construct_ssa(function)
        info = liveness(lowered)
        costs = spill_costs(lowered, store_cost=target.store_cost, load_cost=target.load_cost)
        analysed = time.perf_counter()
        graph = set_reference.build_interference_graph(lowered, info=info, weights=costs)
        intervals = set_reference.live_intervals(lowered, info=info)
        timings = {"liveness": analysed - started, "interference": time.perf_counter() - analysed}
        best = min(best, sum(timings[stage] for stage in stages))
        context = PipelineContext(
            function=function,
            name=function.name,
            target=target,
            num_registers=8,
            lowered=lowered,
            liveness=dense_liveness(lowered),
            costs=costs,
            graph=graph,
            intervals=intervals,
        )
    return best, context


def compare_dense_kernel(
    stages=DENSE_STAGES,
    statements=LARGE_PROFILE["statements"],
    seed=FIXED_SEED,
    repeat=3,
):
    """Measure dense vs set-based front-end stage time on one fixed function.

    Returns ``(speedup, dense_seconds, reference_seconds)`` after asserting
    the two kernels produced byte-identical problem digests and
    interchangeable warm-store cells.
    """
    import tempfile
    from pathlib import Path

    from repro.store.keys import problem_digest
    from repro.targets import get_target
    from repro.workloads.programs import GeneratorProfile

    unknown = sorted(set(stages) - set(DENSE_STAGES))
    if unknown:
        raise ValueError(
            f"unsupported --stages entries {unknown}: the dense-kernel gate "
            f"times {list(DENSE_STAGES)} (any non-empty subset)"
        )
    if not stages:
        raise ValueError("--stages must name at least one front-end stage")

    profile = GeneratorProfile(
        statements=statements,
        accumulators=max(8, statements * LARGE_PROFILE["accumulators"] // LARGE_PROFILE["statements"]),
        loop_depth=LARGE_PROFILE["loop_depth"],
    )
    function = generate_function("dense_smoke", profile, rng=seed)

    # Always run the full front-end chain (the digest-parity check needs the
    # packaged problem); ``--stages`` only selects which timings are summed.
    front_end = Pipeline.from_spec(target="st231", registers=8, stages=FRONT_END_STAGES)
    dense_seconds, dense_ctx = _time_stages(front_end, function, stages, repeat)
    ref_seconds, ref_front = _time_reference_stages(
        function, get_target("st231"), stages, repeat
    )
    # The reference context enters the chain at ``extract``.
    ref_ctx = front_end.run_context(ref_front)

    # Byte-identical store keys: the digest covers the canonical graph with
    # its weights plus the live intervals, so cells written under either
    # kernel are the same cells.
    dense_digest = problem_digest(dense_ctx.problem, target="st231")
    ref_digest = problem_digest(ref_ctx.problem, target="st231")
    assert dense_digest == ref_digest, (
        f"kernel digests diverged: dense={dense_digest} reference={ref_digest}"
    )

    # And end to end: a store warmed through the dense pipeline must serve
    # the reference front end without an allocator call.
    with tempfile.TemporaryDirectory() as tmp:
        with Pipeline.from_spec(
            "NL", target="st231", registers=8, store=str(Path(tmp) / "kernel_swap.sqlite")
        ) as pipe:
            warmed = pipe.run(function)
            assert warmed.stage_stats["allocate"]["cache"] == "miss"
            served = pipe.run_context(ref_front)
        assert served.stage_stats["allocate"]["cache"] == "hit", (
            "set-based reference front end missed cells warmed by the dense kernel"
        )
        assert served.result.spilled == warmed.result.spilled

    return ref_seconds / dense_seconds, dense_seconds, ref_seconds


def test_dense_front_end_speedup_at_large_scale(capsys):
    """Dense kernel vs set-based reference at the largest shipped scale.

    Always checks digest parity and cross-kernel store-cell
    interchangeability (asserted inside the comparison).  The wall-clock
    floor — >= 2x, the conservative CI gate below the >= 3x local target —
    is only *asserted* when ``REPRO_PERF_SMOKE`` is set, so timing flakes on
    shared runners cannot fail the functional CI jobs; the dedicated
    perf-smoke job exports the variable (and additionally runs the
    ``--stages`` CLI gate).
    """
    import os

    speedup, dense_seconds, ref_seconds = compare_dense_kernel()
    with capsys.disabled():
        print(
            f"\ndense kernel on {'+'.join(DENSE_STAGES)} @ statements={LARGE_PROFILE['statements']}: "
            f"sets {ref_seconds * 1e3:.1f} ms -> dense {dense_seconds * 1e3:.1f} ms "
            f"({speedup:.2f}x)"
        )
    if os.environ.get("REPRO_PERF_SMOKE"):
        assert speedup >= 2.0, (
            f"dense kernel only {speedup:.2f}x the set-based reference "
            f"(dense {dense_seconds * 1e3:.1f} ms vs sets {ref_seconds * 1e3:.1f} ms)"
        )


# ---------------------------------------------------------------------- #
# machine-verifier overhead: check="off" must stay free, check="each" is
# the measured price of per-pass contract enforcement
# ---------------------------------------------------------------------- #
def measure_check_overhead(statements=240, seed=FIXED_SEED, repeat=3):
    """Best-of-``repeat`` full-pipeline seconds under each check mode.

    Returns ``{"off": s, "boundaries": s, "each": s, "each_overhead": ratio}``
    for one fixed-seed function through the full NL pipeline.
    """
    from repro.pipeline.spec import PipelineSpec

    profile = GeneratorProfile(statements=statements, accumulators=16, loop_depth=3)
    function = generate_function("check_overhead", profile, rng=seed)
    # One untimed warm-up run so the first measured mode does not pay the
    # process-wide warm-up (imports, code caches) the later ones skip.
    Pipeline(
        PipelineSpec(allocator="NL", target="st231", registers=6, check="each")
    ).run(function)
    import time

    results = {}
    for mode in ("off", "boundaries", "each"):
        pipe = Pipeline(
            PipelineSpec(allocator="NL", target="st231", registers=6, check=mode)
        )
        best = float("inf")
        for _ in range(repeat):
            # Wall-clock, not the sum of stage timings: the contract
            # enforcement runs *between* stages and must be part of the price.
            started = time.perf_counter()
            pipe.run(function)
            best = min(best, time.perf_counter() - started)
        results[mode] = best
    results["each_overhead"] = results["each"] / results["off"] if results["off"] else float("inf")
    return results


def test_check_mode_off_invokes_no_checkers(medium_function, monkeypatch):
    """The default ``check="off"`` pipeline must never enter the verifier.

    This is the non-flaky form of "default throughput is unchanged": the only
    new work the machine-verifier wiring could add to an ``off`` run is a
    checker invocation, so zero invocations means zero added cost beyond two
    string comparisons per run.
    """
    import repro.pipeline.engine as engine_module

    calls = []
    real = engine_module.check_pipeline_context

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "check_pipeline_context", counting)
    pipe = Pipeline.from_spec("NL", target="st231", registers=8)
    context = pipe.run(medium_function)
    assert context.report is not None
    assert calls == [], f"check='off' run invoked checkers {len(calls)} time(s)"

    each = Pipeline.from_spec("NL", target="st231", registers=8, check="each")
    each.run(medium_function)
    assert calls, "check='each' run never invoked the verifier"


def test_check_each_overhead_measured(capsys):
    """Report the measured per-pass enforcement price (not a timing assert)."""
    results = measure_check_overhead(statements=120, repeat=2)
    with capsys.disabled():
        print(
            f"\ncheck-mode overhead (NL @ st231): off {results['off'] * 1e3:.1f} ms, "
            f"boundaries {results['boundaries'] * 1e3:.1f} ms, "
            f"each {results['each'] * 1e3:.1f} ms ({results['each_overhead']:.2f}x)"
        )
    assert results["each"] >= 0.0 and results["off"] >= 0.0


# ---------------------------------------------------------------------- #
# telemetry: the no-op default must stay free, a live tracer is the
# measured price of full span collection
# ---------------------------------------------------------------------- #
def measure_telemetry_overhead(statements=120, seed=FIXED_SEED, repeat=3):
    """Measure pipeline seconds with the default no-op tracer vs a live one.

    Returns ``noop_seconds`` / ``enabled_seconds`` (best-of-``repeat`` full
    runs), ``spans_per_run`` (spans a traced run emits), ``per_span_seconds``
    (micro-benchmarked cost of one *no-op* span enter/exit), and
    ``noop_overhead_fraction`` — a conservative upper bound on what the
    telemetry wiring costs an untraced run: every span site priced at the
    no-op span cost, even though the hot paths guard on ``tracer.enabled``
    and skip span creation entirely.
    """
    import time

    from repro.telemetry.tracer import NULL_TRACER, Tracer, use_tracer

    profile = GeneratorProfile(statements=statements, accumulators=16, loop_depth=3)
    function = generate_function("telemetry_overhead", profile, rng=seed)
    pipe = Pipeline.from_spec("NL", target="st231", registers=6)
    pipe.run(function)  # warm-up (imports, code caches)

    def best_of(run):
        best = float("inf")
        for _ in range(repeat):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
        return best

    noop_seconds = best_of(lambda: pipe.run(function))
    tracer = Tracer()
    with use_tracer(tracer):
        enabled_seconds = best_of(lambda: pipe.run(function))
    spans_per_run = len(tracer.snapshot().events) // repeat

    iterations = 100_000
    started = time.perf_counter()
    for _ in range(iterations):
        with NULL_TRACER.span("bench"):
            pass
    per_span_seconds = (time.perf_counter() - started) / iterations

    noop_overhead_fraction = (
        per_span_seconds * spans_per_run / noop_seconds if noop_seconds else 0.0
    )
    return {
        "noop_seconds": noop_seconds,
        "enabled_seconds": enabled_seconds,
        "spans_per_run": spans_per_run,
        "per_span_seconds": per_span_seconds,
        "noop_overhead_fraction": noop_overhead_fraction,
    }


def test_default_run_touches_only_noop_tracer(medium_function, monkeypatch):
    """An untraced run must never reach a *live* tracer method.

    This is the non-flaky form of "telemetry disabled costs nothing": the
    only way the instrumentation could slow an untraced run down is by
    recording into an enabled :class:`Tracer`, so poisoning every
    ``Tracer`` recording method and running the default pipeline proves the
    ambient no-op path is the only one taken.  BFPL exercises the allocator
    phase spans, the deepest instrumentation.
    """
    from repro.telemetry import tracer as tracer_module

    def poisoned(self, *args, **kwargs):
        raise AssertionError("enabled Tracer method called during an untraced run")

    monkeypatch.setattr(tracer_module.Tracer, "span", poisoned)
    monkeypatch.setattr(tracer_module.Tracer, "count", poisoned)
    monkeypatch.setattr(tracer_module.Tracer, "gauge", poisoned)
    pipe = Pipeline.from_spec("BFPL", target="st231", registers=6)
    context = pipe.run(medium_function)
    assert context.result is not None and context.report.feasible


def test_noop_tracer_overhead_bound(capsys):
    """The no-op telemetry bound: span sites cost < 5% of an untraced run.

    Unlike the wall-clock perf gates this is asserted unconditionally — the
    measured fraction is the *micro-benchmarked* no-op span price times the
    span-site count over a full run, which holds a ~200x margin to the bound
    and does not flake on shared runners.
    """
    results = measure_telemetry_overhead(statements=120, repeat=2)
    with capsys.disabled():
        print(
            f"\ntelemetry overhead (NL @ st231): untraced {results['noop_seconds'] * 1e3:.1f} ms, "
            f"traced {results['enabled_seconds'] * 1e3:.1f} ms "
            f"({results['spans_per_run']} spans, no-op span {results['per_span_seconds'] * 1e9:.0f} ns, "
            f"no-op overhead {results['noop_overhead_fraction']:.5f})"
        )
    assert results["noop_overhead_fraction"] < 0.05


# ---------------------------------------------------------------------- #
# allocation service: submit -> result latency, cold store vs warm store
# ---------------------------------------------------------------------- #
def measure_service_latency(jobs=8, statements=60, registers=6, seed_base=0):
    """Measure end-to-end service latency over a fixed generated corpus.

    Runs an in-process :class:`~repro.service.AllocationService` (HTTP and
    all) twice over the same ``jobs`` single-function modules: once against
    an empty store (every allocation computed) and once against the store
    the first pass warmed, with a fresh queue so nothing dedupes.  Latency
    is wall-clock submit -> terminal state per job, summed.  Asserts the
    warm pass served every allocation from the cache (zero allocator
    calls) and that both passes returned byte-identical function payloads.

    Then times the batch path as ``batch_window_seconds``: a cold sweep of
    the first Figure 9 instance (36 cells, posted as batches of 32 and 4)
    through :class:`~repro.experiments.backends.ServiceBackend`, as
    ``reproduce --backend service`` runs it, each against a fresh service,
    queue and store.  One untimed warm-up window absorbs the process's
    first-use costs; the metric is the median of the three timed windows
    that follow.  Asserts every window's records equal the in-process
    sweep's.

    Returns a dict shaped for the ``service_latency`` bench-history block
    (``*_seconds`` metrics diff as lower-is-better).
    """
    import statistics
    import tempfile
    import time
    from pathlib import Path

    from repro.experiments.backends import ServiceBackend
    from repro.experiments.figures import FIGURE_SPECS
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.ir.printer import print_function
    from repro.service import AllocationService, ServiceClient
    from repro.store import open_store
    from repro.workloads.corpus import build_corpus

    corpus = [
        print_function(
            generate_function(
                f"svc_bench{i}",
                GeneratorProfile(statements=statements, accumulators=10),
                rng=seed_base + i,
            )
        )
        for i in range(jobs)
    ]

    def one_pass(service, expect_misses):
        client = ServiceClient(service.url)
        elapsed = 0.0
        results = []
        for index, ir in enumerate(corpus):
            started = time.perf_counter()
            job_id = client.submit(
                {"ir": ir, "name": f"svc_bench{index}", "allocator": "NL", "registers": registers}
            )["job"]["id"]
            job = client.wait(job_id, timeout=120.0, poll=0.005)
            elapsed += time.perf_counter() - started
            assert job["state"] == "done", f"bench job failed: {job['error']}"
            results.append(job["result"]["functions"])
        stats = client.stats()
        assert stats["cache"]["miss"] == (jobs if expect_misses else 0), (
            f"expected {'all misses' if expect_misses else 'zero allocator calls'}, "
            f"got cache split {stats['cache']}"
        )
        return elapsed, results

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "cells.sqlite"
        with AllocationService(store, Path(tmp) / "q_cold.sqlite", workers=2) as service:
            cold_seconds, cold_results = one_pass(service, expect_misses=True)
        # Fresh queue, warmed store: same work, zero allocator invocations.
        with AllocationService(store, Path(tmp) / "q_warm.sqlite", workers=2) as service:
            warm_seconds, warm_results = one_pass(service, expect_misses=False)

        spec = FIGURE_SPECS["figure9"]
        window = build_corpus(spec.suite, target=spec.target, seed=2013).problems[:1]
        config = ExperimentConfig(allocators=list(spec.allocators), register_counts=list(spec.register_counts))
        local = [
            (r.allocator, r.num_registers, r.spill_cost, r.spilled) for r in run_experiment(window, config)
        ]
        assert len(local) == len(spec.allocators) * len(spec.register_counts)

        def batch_window(name):
            """Seconds of one cold service sweep of ``window``."""
            with AllocationService(Path(tmp) / f"{name}.sqlite", workers=2) as service:
                with open_store(Path(tmp) / f"{name}-client.sqlite") as client_store:
                    started = time.perf_counter()
                    served = run_experiment(window, config, store=client_store, backend=ServiceBackend([service.url]))
                    seconds = time.perf_counter() - started
            assert [(r.allocator, r.num_registers, r.spill_cost, r.spilled) for r in served] == local, (
                "service batch window diverged from the in-process sweep"
            )
            return seconds

        batch_window("warmup")
        batch_window_seconds = statistics.median(batch_window(f"batch{n}") for n in range(3))

    assert warm_results == cold_results, "warm service results diverged from cold"
    return {
        "jobs": jobs,
        "statements": statements,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "mean_cold_seconds": round(cold_seconds / jobs, 6),
        "mean_warm_seconds": round(warm_seconds / jobs, 6),
        "batch_cells": len(local),
        "batch_window_seconds": round(batch_window_seconds, 6),
    }


def test_service_latency_warm_beats_nothing_but_asserts_cache(capsys):
    """Smoke the service bench path (cache assertions, not wall-clock)."""
    results = measure_service_latency(jobs=3, statements=30)
    with capsys.disabled():
        print(
            f"\nservice submit->result latency ({results['jobs']} jobs): "
            f"cold {results['cold_seconds'] * 1e3:.1f} ms, "
            f"warm {results['warm_seconds'] * 1e3:.1f} ms, "
            f"batch window ({results['batch_cells']} cells) {results['batch_window_seconds'] * 1e3:.1f} ms"
        )
    assert results["cold_seconds"] > 0 and results["warm_seconds"] > 0
    assert results["batch_window_seconds"] > 0


def main(argv=None):
    """The ``--stages`` CLI used by the CI perf-smoke job."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="Dense-kernel perf smoke: time front-end stages under both "
        "kernels, assert the speedup floor and digest/store parity."
    )
    parser.add_argument(
        "--stages",
        default=",".join(DENSE_STAGES),
        help="comma-separated front-end stages to time (default: liveness,interference)",
    )
    parser.add_argument("--statements", type=int, default=LARGE_PROFILE["statements"])
    parser.add_argument("--seed", type=int, default=FIXED_SEED)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument(
        "--service",
        action="store_true",
        help=(
            "additionally measure allocation-service submit->result latency "
            "(cold store vs warm store over HTTP) and include it in the "
            "--json/--append-history payload as 'service_latency'"
        ),
    )
    parser.add_argument(
        "--service-jobs", type=int, default=8, help="jobs per service latency pass"
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help=(
            "additionally write the stage timings (checker off) and the "
            "measured check='each' overhead to PATH (a flat payload; see "
            "--append-history for the committed trajectory format)"
        ),
    )
    parser.add_argument(
        "--append-history",
        default=None,
        metavar="PATH",
        help=(
            "append the measured payload as a dated entry to a "
            "repro-bench-history file (the committed perf trajectory, "
            "BENCH_pipeline.json; compare entries with `repro-alloc bench-diff`)"
        ),
    )
    args = parser.parse_args(argv)

    stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
    try:
        speedup, dense_seconds, ref_seconds = compare_dense_kernel(
            stages=stages, statements=args.statements, seed=args.seed, repeat=args.repeat
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"stages={','.join(stages)} statements={args.statements} seed={args.seed}: "
        f"sets {ref_seconds * 1e3:.1f} ms -> dense {dense_seconds * 1e3:.1f} ms "
        f"({speedup:.2f}x, floor {args.min_speedup:.1f}x)"
    )
    print("digest parity: ok; warm-store cells interchangeable across kernels: ok")

    service_latency = None
    if args.service:
        service_latency = measure_service_latency(jobs=args.service_jobs)
        print(
            f"service latency ({service_latency['jobs']} jobs over HTTP): "
            f"cold {service_latency['cold_seconds'] * 1e3:.1f} ms total, "
            f"warm {service_latency['warm_seconds'] * 1e3:.1f} ms total "
            f"(warm pass: zero allocator calls, byte-identical results); "
            f"batch window ({service_latency['batch_cells']} cells): "
            f"{service_latency['batch_window_seconds'] * 1e3:.1f} ms"
        )

    if args.json or args.append_history:
        import json

        from repro.pipeline.spec import PipelineSpec
        from repro.workloads.programs import GeneratorProfile

        # Per-stage breakdown of one full run with the checker off (the
        # committed baseline), plus the measured check="each" and telemetry
        # prices.
        profile = GeneratorProfile(
            statements=args.statements,
            accumulators=max(8, args.statements * LARGE_PROFILE["accumulators"] // LARGE_PROFILE["statements"]),
            loop_depth=LARGE_PROFILE["loop_depth"],
        )
        function = generate_function("dense_smoke", profile, rng=args.seed)
        baseline = Pipeline(
            PipelineSpec(allocator="NL", target="st231", registers=8, check="off")
        ).run(function)
        overhead = measure_check_overhead(
            statements=min(args.statements, 240), seed=args.seed, repeat=args.repeat
        )
        telemetry = measure_telemetry_overhead(
            statements=min(args.statements, 240), seed=args.seed, repeat=args.repeat
        )
        payload = {
            "statements": args.statements,
            "seed": args.seed,
            "dense_front_end": {
                "stages": list(stages),
                "dense_seconds": round(dense_seconds, 6),
                "reference_seconds": round(ref_seconds, 6),
                "speedup": round(speedup, 3),
            },
            "pipeline_stage_seconds_check_off": {
                stage: round(seconds, 6) for stage, seconds in baseline.timings.items()
            },
            "check_overhead": {
                "statements": min(args.statements, 240),
                "off_seconds": round(overhead["off"], 6),
                "boundaries_seconds": round(overhead["boundaries"], 6),
                "each_seconds": round(overhead["each"], 6),
                "each_overhead_ratio": round(overhead["each_overhead"], 3),
            },
            "telemetry_overhead": {
                "statements": min(args.statements, 240),
                "noop_seconds": round(telemetry["noop_seconds"], 6),
                "enabled_seconds": round(telemetry["enabled_seconds"], 6),
                "spans_per_run": telemetry["spans_per_run"],
                "per_span_seconds": round(telemetry["per_span_seconds"], 9),
                "noop_overhead_fraction": round(telemetry["noop_overhead_fraction"], 6),
            },
        }
        if service_latency is not None:
            payload["service_latency"] = service_latency
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json}")
        if args.append_history:
            from repro.telemetry.bench import append_history

            entry = append_history(args.append_history, payload)
            print(
                f"appended history entry to {args.append_history} "
                f"(recorded_at={entry['recorded_at']} git_rev={entry['git_rev']})"
            )
    if speedup < args.min_speedup:
        print(
            f"FAIL: dense kernel below the {args.min_speedup:.1f}x floor", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
