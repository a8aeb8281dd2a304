"""Workload ``compile_large``: IR text through the full pipeline, one large function at a time.

Each sample parses the printed IR of a distinct seeded 1000-statement
function (about 2.4k-2.8k interference vertices, MaxLive about 100) and runs
the default stage chain with NL on st231 at R=8, so no sample reuses
another's objects.  Analysis, graphs and allocation do almost all of the
work; the store and the service do none.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Tuple

from measure import (
    Metric,
    Samples,
    Timer,
    import_layers,
    import_module,
    peak_rss_mb,
    setup_metric,
    throughput_metric,
    timing_metric,
)
from outcome import Outcome, TracedOutcome

from repro.alloc.base import get_allocator
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.pipeline import Pipeline
from repro.store.keys import problem_digest
from repro.workloads.programs import GeneratorProfile, generate_function

#: loop counters are never redefined and trip counts are 2-4, so every
#: function ends well inside the differential oracle's step budget (at most
#: about 8k of its 20k steps were seen).  With the generator's defaults some
#: functions loop past the budget on every argument set, and the oracle
#: gives no verdict on them.
PROFILE = GeneratorProfile(
    statements=1000, accumulators=80, loop_depth=4, protect_loop_counters=True, loop_iterations=(2, 4)
)
TARGET = "st231"
REGISTERS = 8
#: ``spill_cost_ratio`` is taken over the seed's first functions, a fixed
#: set, so it is exact for a given seed however many samples a run takes.
RATIO_FUNCTIONS = 3
#: fewest functions a run compiles, even past its time budget.
MIN_COLD = 6
#: compiles in the traced run.
TRACED_COMPILES = 2


def function_text(seed: int, index: int) -> str:
    """Printed IR of the seed's ``index``-th function (index -1: the warm-up)."""
    rng = random.Random(f"compile_large/{seed}/{index}")
    name = f"large{index}" if index >= 0 else "large_warmup"
    return print_function(generate_function(name, PROFILE, rng=rng))


def compile_text(pipeline: Pipeline, text: str):
    return pipeline.run(parse_function(text))


def pipelines() -> Tuple[Pipeline, Pipeline]:
    """The full pipeline and its front end (the part that keys a repeat)."""
    full = Pipeline.from_spec("NL", target=TARGET, registers=REGISTERS)
    front = Pipeline.from_spec(
        "NL", target=TARGET, registers=REGISTERS, stages="liveness,interference,extract"
    )
    return full, front


def digest_text(front: Pipeline, text: str) -> str:
    """What recognising a repeated function costs: parse, front end, digest."""
    context = front.run(parse_function(text))
    return problem_digest(context.problem, target=TARGET, registers=REGISTERS)


def run(seed: int, seconds: float, scratch: str) -> Outcome:
    outcome = Outcome()
    outcome.metrics["setup_s"] = setup_metric(lambda: import_module("repro.pipeline"))
    full, front = pipelines()
    warm_up = function_text(seed, -1)
    compile_text(full, warm_up)
    digest_text(front, warm_up)

    timer = Timer()
    cold, warm, dedup, compiles = Samples(), Samples(), Samples(), Samples()
    #: index -> (input text, rewritten IR); the oracle checks each once.
    outputs: Dict[int, Tuple[str, str]] = {}
    #: index -> NL cost on the functions of spill_cost_ratio.
    costs: Dict[int, float] = {}
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds or len(cold) < MIN_COLD:
        text = function_text(seed, index)
        context = outcome.attempt(f"compile {index}", lambda: timer.time(cold, compile_text, full, text)[0])
        if context is not None:
            outputs[index] = (text, context.rewritten_ir())
            if not context.report.feasible:
                outcome.fail(f"compile {index}", "verify report infeasible")
            if index < RATIO_FUNCTIONS:
                costs[index] = context.result.spill_cost
            del context
        if index % 2:
            again = outcome.attempt(f"warm {index}", lambda: timer.time(warm, compile_text, full, text)[0])
            if again is not None and index in outputs and again.rewritten_ir() != outputs[index][1]:
                outcome.fail(f"warm {index}", "output differs from the cold compile")
            del again
        else:
            outcome.attempt(f"dedup {index}", lambda: timer.time(dedup, digest_text, front, text))
        index += 1
    outcome.metrics["peak_rss_mb"] = Metric(peak_rss_mb())

    for samples in (cold, warm):
        compiles.raw += samples.raw
        compiles.norm += samples.norm
    outcome.metrics["latency_p50_s"] = timing_metric(cold, 50)
    outcome.metrics["latency_p90_s"] = timing_metric(compiles, 90)
    outcome.metrics["warm_latency_p50_s"] = timing_metric(warm, 50)
    outcome.metrics["dedup_latency_p50_s"] = timing_metric(dedup, 50)
    outcome.metrics["throughput_per_s"] = throughput_metric(len(compiles), compiles)

    for index, (text, rewritten) in sorted(outputs.items()):
        outcome.check_oracle(f"compile {index}", text, rewritten)
    optimal = get_allocator("Optimal")
    heuristic_total = optimal_total = 0.0
    for index in range(RATIO_FUNCTIONS):
        text = function_text(seed, index)
        if index not in costs:  # a slow machine compiled fewer functions
            costs[index] = compile_text(full, text).result.spill_cost
        best = optimal.allocate(front.run(parse_function(text)).problem).spill_cost
        if costs[index] < best - 1e-9:
            outcome.fail(f"compile {index}", f"NL cost {costs[index]} below optimal {best}")
        heuristic_total += costs[index]
        optimal_total += best
    outcome.metrics["spill_cost_ratio"] = Metric(heuristic_total / optimal_total, RATIO_FUNCTIONS)
    return outcome


def traced(seed: int, out_dir, scratch: str) -> TracedOutcome:
    """Per-layer numbers: the seed's first compiles, untraced then traced."""
    import trace_layers

    outcome = TracedOutcome()
    imported = import_layers("repro.pipeline")

    full, _front = pipelines()
    compile_text(full, function_text(seed, -1))
    texts = [function_text(seed, index) for index in range(TRACED_COMPILES)]
    timer = Timer(during=False)
    plain, instrumented = Samples(), Samples()
    for index, text in enumerate(texts):
        outcome.attempt(f"untraced compile {index}", lambda: timer.time(plain, compile_text, full, text))
    recorder = trace_layers.install()
    for index, text in enumerate(texts):
        recorder.set_op(f"compile-{index}")
        outcome.attempt(
            f"traced compile {index}",
            lambda: timer.time(instrumented, recorder.span, "op.compile", "op", "op",
                               lambda: compile_text(full, text)),
        )
    snapshot = recorder.snapshot()
    outcome.finish(
        snapshot,
        scale=timer.scale(),
        per=TRACED_COMPILES,
        extra=imported,
        overhead=sum(instrumented.norm) / sum(plain.norm),
        trace_path=out_dir / f"trace-compile_large-{seed}.json",
    )
    return outcome
