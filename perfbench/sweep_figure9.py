"""Workload ``sweep_figure9``: the paper's Figure 9 (EEMBC stand-in on st231).

28 functions x 6 allocators x 6 register counts = 1008 verified cells.  The
cold sweep fills an empty SQLite store one benchmark program (a *window*)
at a time through ``run_experiment``, with a reference sample between
windows: one whole-sweep sample cannot be corrected for drift (a single
12 s call normalised before and after still varied by 13%).  The warm part
repeats ``repro-alloc reproduce --figure figure9`` on the filled store, and
re-sweeps single windows whose cells are all stored (the dedup samples).
The sweep stays serial (``jobs=1``, the ``reproduce`` default).

Allocators (the MILP optimum included), ``check_allocation`` and store
writes dominate the cold part; corpus generation and store reads the warm
part.  No IR is parsed and no service runs.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
from typing import Callable, Dict, List

from measure import (
    Metric,
    Samples,
    Timer,
    geometric_mean,
    import_layers,
    import_module,
    peak_rss_mb,
    setup_metric,
    throughput_metric,
    timing_metric,
)
from outcome import Outcome, TracedOutcome

from repro.cli import main as cli_main
from repro.experiments.figures import FIGURE_SPECS, figure9
from repro.experiments.runner import ExperimentConfig, InstanceRecord, run_experiment
from repro.store.base import open_store
from repro.workloads.corpus import Corpus, build_corpus

FIGURE = "figure9"
SPEC = FIGURE_SPECS[FIGURE]
#: the figure's own corpus seed (the ``reproduce`` default).  Drawing the
#: corpus from the benchmark seed made the window percentiles follow the
#: corpus drawn (12-20% apart across seeds, against 5% for throughput), so
#: every run sweeps the paper figure's corpus and the seed orders its windows.
CORPUS_SEED = 2013
#: the allocators whose normalised cost ``spill_cost_ratio`` summarises.
HEURISTICS = ("NL", "BL", "FPL", "BFPL")
#: fewest warm samples a run takes, even past its time budget.
MIN_WARM = 5


def windows(corpus: Corpus, seed: int) -> List[Corpus]:
    """One corpus per benchmark program, in the seed's order, each with the
    whole corpus's provenance so it keys exactly the cells ``reproduce``
    later reads."""
    by_program: Dict[str, Corpus] = {}
    for index, problem in enumerate(corpus.problems):
        program = corpus.program_of[index]
        window = by_program.get(program)
        if window is None:
            window = by_program[program] = Corpus(
                suite=corpus.suite, target=corpus.target, seed=corpus.seed, scale=corpus.scale
            )
        window.program_of[len(window.problems)] = program
        window.problems.append(problem)
    ordered = list(by_program.values())
    random.Random(f"sweep_figure9/{seed}").shuffle(ordered)
    return ordered


def sweep(window: Corpus, store, backend=None) -> List[InstanceRecord]:
    """The figure's cells of ``window``, in process or on ``backend``."""
    config = ExperimentConfig(allocators=list(SPEC.allocators), register_counts=list(SPEC.register_counts))
    return run_experiment(window, config, store=store, backend=backend)


def reproduce(store_path: str) -> str:
    """``repro-alloc reproduce --figure figure9`` in process; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(["reproduce", "--figure", FIGURE, "--store", store_path, "--seed", str(CORPUS_SEED)])
    if code != 0:
        raise RuntimeError(f"reproduce exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def check_cells(records: List[InstanceRecord], outcome: Outcome, kind: str = "cold") -> None:
    """No cell may beat the optimum of its (instance, R)."""
    optimum = {(r.instance, r.num_registers): r.spill_cost for r in records if r.allocator == "Optimal"}
    for record in records:
        best = optimum[(record.instance, record.num_registers)]
        if record.spill_cost < best - 1e-9 * max(1.0, abs(best)):
            outcome.fail(
                f"{kind} {record.program}",
                f"{record.allocator} cost {record.spill_cost} below optimal {best} "
                f"on {record.instance} at R={record.num_registers}",
            )


def run(seed: int, seconds: float, scratch: str) -> Outcome:
    outcome = Outcome()
    outcome.metrics["setup_s"] = setup_metric(lambda: import_module("repro.cli"))
    corpus = build_corpus(SPEC.suite, target=SPEC.target, seed=CORPUS_SEED)
    parts = windows(corpus, seed)
    with open_store(os.path.join(scratch, "warm-up.sqlite")) as store:
        sweep(parts[0], store)

    store_path = os.path.join(scratch, "cells.sqlite")
    timer = Timer()
    #: dedup windows take milliseconds: one reference reading per pass.
    quick = Timer(every=len(parts))
    cold, warm, dedup = Samples(), Samples(), Samples()
    swept: Dict[str, List[InstanceRecord]] = {}
    started = time.perf_counter()
    with open_store(store_path) as store:
        for window in parts:
            program = window.program_of[0]
            done = outcome.attempt(f"cold {program}", lambda: timer.time(cold, sweep, window, store)[0])
            swept[program] = done or []
        reproduce(store_path)
        texts = []
        while time.perf_counter() - started < seconds or len(warm) < MIN_WARM:
            step = len(texts)
            texts.append(outcome.attempt(f"warm {step}", lambda: timer.time(warm, reproduce, store_path)[0]))
            for window in parts:
                program = window.program_of[0]
                outcome.attempt(f"dedup {step} {program}", lambda: quick.time(dedup, sweep, window, store))
    outcome.metrics["peak_rss_mb"] = Metric(peak_rss_mb())

    # Corpus order, as ``reproduce`` sees them: the figure's means are then
    # summed in the same order.
    records = [record for program in dict.fromkeys(corpus.program_of.values()) for record in swept[program]]
    cells = len(corpus) * len(SPEC.allocators) * len(SPEC.register_counts)
    if len(records) != cells:
        outcome.fail("cold sweep", f"{len(records)} cells swept, expected {cells}")
    check_cells(records, outcome)
    figure = figure9(records=records)
    for step, text in enumerate(texts):
        if text is not None and text != figure.rendered + "\n":
            outcome.fail(f"warm {step}", "figure text differs from the cold sweep's")
    outcome.metrics["latency_p50_s"] = timing_metric(cold, 50)
    outcome.metrics["latency_p90_s"] = timing_metric(cold, 90)
    outcome.metrics["warm_latency_p50_s"] = timing_metric(warm, 50)
    outcome.metrics["dedup_latency_p50_s"] = timing_metric(dedup, 50)
    outcome.metrics["throughput_per_s"] = throughput_metric(cells, cold)
    outcome.metrics["spill_cost_ratio"] = Metric(
        geometric_mean([figure.series[name][r] for name in HEURISTICS for r in SPEC.register_counts]),
        len(HEURISTICS) * len(SPEC.register_counts),
    )
    return outcome


def traced(seed: int, out_dir, scratch: str) -> TracedOutcome:
    """Per-layer numbers: one windowed cold sweep, one warm reproduce and
    one dedup pass over every window, untraced and then traced."""
    import trace_layers

    outcome = TracedOutcome()
    imported = import_layers("repro.cli")

    parts = windows(build_corpus(SPEC.suite, target=SPEC.target, seed=CORPUS_SEED), seed)
    with open_store(os.path.join(scratch, "warm-up.sqlite")) as store:
        sweep(parts[0], store)

    def unit(name: str, operation: Callable[[str, str, Callable[[], object]], None]) -> None:
        """The traced unit; ``operation(op id, span name, call)`` runs each step."""
        path = os.path.join(scratch, f"{name}.sqlite")
        with open_store(path) as store:
            for window in parts:
                operation(f"{name} cold {window.program_of[0]}", "op.cold_window", lambda: sweep(window, store))
            operation(f"{name} warm", "op.warm_reproduce", lambda: reproduce(path))
            for window in parts:
                operation(f"{name} dedup {window.program_of[0]}", "op.dedup_window", lambda: sweep(window, store))

    timer = Timer(during=False)
    plain, instrumented = Samples(), Samples()
    timer.time(plain, unit, "untraced", lambda op, name, call: outcome.attempt(op, call))
    recorder = trace_layers.install()

    def spanned(op: str, name: str, call: Callable[[], object]) -> None:
        recorder.set_op(op)
        outcome.attempt(op, lambda: recorder.span(name, "op", "op", call))

    timer.time(instrumented, unit, "traced", spanned)
    outcome.finish(
        recorder.snapshot(),
        scale=timer.scale(),
        per=1,
        extra=imported,
        overhead=sum(instrumented.norm) / sum(plain.norm),
        trace_path=out_dir / f"trace-sweep_figure9-{seed}.json",
    )
    return outcome
