"""Command-line interface.

Examples
--------
Allocate a textual IR file with the BFPL allocator and 8 registers::

    repro-alloc allocate --input program.ir --allocator BFPL --registers 8

The allocate command drives the pass-pipeline engine
(:mod:`repro.pipeline`); ``--pipeline`` accepts a declarative spec (a stage
chain, a JSON config, ``ssa``/``non-ssa``, or an allocator name), ``--emit``
selects the output form, and ``--store`` caches allocate-stage results
through the experiment store::

    repro-alloc allocate --input program.ir --allocator NL --registers 4 \
        --emit ir --no-opt --store cache.sqlite

Regenerate a figure of the paper on a reduced corpus::

    repro-alloc figure figure10 --scale 0.5

Run the persistent experiment pipeline — an interrupted or repeated ``sweep``
only computes cells missing from the store, then ``aggregate``/``report``
read the store without re-running any allocator::

    repro-alloc sweep --figure figure9 --scale 0.5 --store results.sqlite
    repro-alloc aggregate --store results.sqlite
    repro-alloc report figure9 --store results.sqlite --format markdown

Inspect a generated corpus::

    repro-alloc corpus --suite eembc --seed 7

Fuzz the whole pipeline with the differential correctness oracle (every
failure is delta-debugged into a minimal reproducer under
``tests/oracle/regressions/``), or replay that corpus::

    repro-alloc oracle --seed 0 --count 500 --jobs 4
    repro-alloc oracle --replay

Trace a run end-to-end (``allocate``/``sweep``/``oracle`` also take
``--trace PATH``), summarize a recorded trace, or compare two bench
payloads for regressions::

    repro-alloc trace program.ir --format chrome -o trace.json
    repro-alloc stats trace.jsonl
    repro-alloc bench-diff BENCH_pipeline.json fresh.json --threshold 0.25

Run the allocation service — a durable job queue + worker pool behind an
HTTP API, with the experiment store as a read-through cache — then submit
work and inspect it::

    repro-alloc serve --store cells.sqlite --port 8713
    repro-alloc submit --input program.ir --allocator NL --registers 4 --wait
    repro-alloc jobs --stats

Exit codes
----------
Every command uses the same three exit codes (pinned by the CLI test
matrix; see :data:`EXIT_OK`):

====  =========================================================
code  meaning
====  =========================================================
0     success (including "checked and passed", "no regression")
1     domain failure: bad input file, infeasible/failed check,
      bench regression, failed/dead service job, unreachable
      server — anything the *work* can be wrong about
2     usage error: unknown flags/commands, malformed argument
      values (argparse's own exit code)
====  =========================================================
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sqlite3
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional

from repro.alloc import available_allocators
from repro.alloc.problem import AllocationProblem
from repro.errors import PipelineError, ReproError
from repro.experiments.figures import ALL_FIGURES, FIGURE_SPECS, FigureSpec, draw_figure
from repro.experiments.report import render_cache_split, render_html_report, render_markdown_report
from repro.experiments.runner import (
    ExperimentConfig,
    check_max_instances,
    run_experiment,
    run_streamed_experiment,
)
from repro.graphs.io import load_graph
from repro.ir.parser import parse_module
from repro.pipeline import Pipeline, PipelineSpec
from repro.store import ExperimentStore, StoreFormatError, open_store
from repro.targets import ALL_TARGETS
from repro.telemetry import (
    Tracer,
    read_jsonl,
    render_text_summary,
    snapshot_to_chrome,
    snapshot_to_jsonl_lines,
    use_tracer,
    write_chrome,
    write_jsonl,
)
from repro.workloads.corpus import CorpusStream, build_corpus, check_scale
from repro.workloads.suites import SUITES

DEFAULT_TARGET = "st231"

#: the CLI exit-code contract — the single authoritative definition (the
#: module docstring renders it as a table, ``tests/test_cli.py`` pins it
#: across commands).  ``EXIT_USAGE`` is argparse's own code for usage
#: errors; commands never return it directly.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

#: default port of `repro-alloc serve` (and the submit/jobs --url default).
DEFAULT_SERVICE_PORT = 8713
DEFAULT_SERVICE_URL = f"http://127.0.0.1:{DEFAULT_SERVICE_PORT}"


def _package_version() -> str:
    """Installed distribution version, falling back to the module version."""
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _error(message: str) -> int:
    """Print a clean error to stderr and return :data:`EXIT_FAILURE`."""
    print(f"repro-alloc: error: {message}", file=sys.stderr)
    return EXIT_FAILURE


def _csv_names(text: str) -> List[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _csv_ints(text: str) -> List[int]:
    return [int(token) for token in _csv_names(text)]


def _is_graph_json(path: str) -> bool:
    return path.endswith(".json") or path.endswith(".json.gz")


def _build_parser() -> argparse.ArgumentParser:
    """Assemble the argument parser with one sub-command per activity."""
    parser = argparse.ArgumentParser(
        prog="repro-alloc",
        description="Layered register allocation (Diouf, Cohen, Rastello - CGO 2013) reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    allocate = subparsers.add_parser("allocate", help="allocate a textual IR file or a graph JSON")
    allocate.add_argument("--input", required=True, help="path to a .ir module or a graph .json/.json.gz")
    allocate.add_argument("--allocator", default=None, help=f"one of {available_allocators()} (default BFPL)")
    allocate.add_argument("--registers", type=int, default=None, help="register count (default 8)")
    allocate.add_argument(
        "--target",
        default=None,
        help=f"one of {sorted(ALL_TARGETS)} (default {DEFAULT_TARGET}; ignored for graph JSON inputs)",
    )
    allocate.add_argument(
        "--pipeline",
        default=None,
        help=(
            "pipeline spec: 'ssa'/'non-ssa' (lowering mode), a comma-separated "
            "stage chain (e.g. 'liveness,interference,extract,allocate,verify'), "
            "a JSON config object, or an allocator name"
        ),
    )
    allocate.add_argument(
        "--no-opt",
        action="store_true",
        help="skip the loadstore_opt stage (keep naive spill-everywhere code)",
    )
    allocate.add_argument(
        "--constrain",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "derive machine-model constraints (register classes, "
            "pre-colorings) for this fraction of variables at the extract "
            "stage; restricts --allocator to the constraint-aware family"
        ),
    )
    allocate.add_argument(
        "--emit",
        choices=("ir", "json", "summary"),
        default="summary",
        help="output form: rewritten IR, a JSON run summary, or the classic summary lines",
    )
    allocate.add_argument(
        "--store",
        default=None,
        help="experiment store path; allocate-stage results are cached/reused through it",
    )
    allocate.add_argument(
        "--jobs", type=int, default=1, help="worker processes for multi-function modules"
    )
    allocate.add_argument(
        "--check",
        choices=("off", "boundaries", "each"),
        default=None,
        help=(
            "static machine-verifier enforcement: 'boundaries' checks the "
            "input and final context, 'each' additionally enforces every "
            "pass's requires/preserves contracts (default off)"
        ),
    )
    _add_trace_argument(allocate, "run")

    check = subparsers.add_parser(
        "check", help="statically verify a textual IR module (machine-verifier)"
    )
    check.add_argument("--input", required=True, help="path to a .ir module")
    check.add_argument(
        "--function", default=None, help="restrict the check to one function by name"
    )
    check.add_argument(
        "--ssa",
        action="store_true",
        help="additionally require strict-SSA form (single defs, dominance)",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="one line per diagnostic, or a JSON array of diagnostic objects",
    )
    check.add_argument(
        "--select",
        default=None,
        help="comma-separated code prefixes to keep (e.g. 'CFG,SSA001')",
    )
    check.add_argument(
        "--ignore",
        default=None,
        help="comma-separated code prefixes to drop (e.g. 'CFG006')",
    )

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("name", choices=sorted(ALL_FIGURES), help="figure identifier")
    figure.add_argument("--scale", type=float, default=1.0, help="corpus scale factor")
    figure.add_argument("--seed", type=int, default=2013)
    figure.add_argument("--max-instances", type=int, default=None)
    figure.add_argument(
        "--store",
        default=None,
        help="experiment store path; cached cells are reused and new ones persisted",
    )

    sweep = subparsers.add_parser(
        "sweep", help="run a sweep into a persistent experiment store (resumable)"
    )
    sweep.add_argument("--store", required=True, help="experiment store path (created if missing)")
    sweep.add_argument(
        "--figure",
        choices=sorted(FIGURE_SPECS),
        default=None,
        help="preset suite/target/allocators/registers from a figure's spec",
    )
    sweep.add_argument("--suite", default=None, choices=sorted(SUITES))
    sweep.add_argument("--target", default=None, help="target machine (default: the suite's)")
    sweep.add_argument("--allocators", default=None, help="comma-separated allocator names")
    sweep.add_argument("--registers", default=None, help="comma-separated register counts")
    sweep.add_argument("--seed", type=int, default=2013)
    sweep.add_argument("--scale", type=float, default=1.0)
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes for cache misses")
    sweep.add_argument("--max-instances", type=int, default=None)
    sweep.add_argument("--skip-trivial", action="store_true")
    sweep.add_argument("--no-verify", action="store_true", help="skip allocation verification")
    sweep.add_argument(
        "--no-resume", action="store_true", help="recompute every cell (results still persisted)"
    )
    _add_trace_argument(sweep, "sweep")
    _add_execution_arguments(sweep, client="sweep")
    sweep.add_argument(
        "--corpus",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stream N generated functions through the sweep at constant memory "
            "instead of materializing a figure corpus (suite defaults to eembc)"
        ),
    )
    sweep.add_argument(
        "--window",
        type=int,
        default=256,
        help="instances keyed/executed per streaming window (--corpus only, default 256)",
    )

    merge_batches_cmd = subparsers.add_parser(
        "merge-batches",
        help="fuse independently produced store shards into one store (conflict-checked)",
    )
    merge_batches_cmd.add_argument(
        "--into", required=True, help="destination store path (created if missing)"
    )
    merge_batches_cmd.add_argument(
        "sources", nargs="+", help="shard store paths (each must exist)"
    )

    reproduce = subparsers.add_parser(
        "reproduce",
        help="sweep one figure's corpus through a store and print the figure "
        "(local pool or service fleet; identical output either way)",
    )
    reproduce.add_argument(
        "--figure", required=True, choices=sorted(FIGURE_SPECS), help="figure identifier"
    )
    reproduce.add_argument("--store", required=True, help="experiment store path")
    _add_execution_arguments(reproduce, client="reproduce")
    reproduce.add_argument("--seed", type=int, default=2013)
    reproduce.add_argument("--scale", type=float, default=1.0, help="corpus scale factor")
    reproduce.add_argument("--max-instances", type=int, default=None)
    reproduce.add_argument(
        "--jobs", type=int, default=1, help="worker processes (local backend only)"
    )

    aggregate = subparsers.add_parser(
        "aggregate", help="summarize a store's records (no allocator runs)"
    )
    aggregate.add_argument("--store", required=True, help="existing experiment store path")
    aggregate.add_argument(
        "--figure",
        choices=sorted(FIGURE_SPECS),
        default=None,
        help="restrict the aggregation to one figure's cells",
    )

    report = subparsers.add_parser(
        "report", help="render a figure from a store (no allocator runs)"
    )
    report.add_argument("name", choices=sorted(FIGURE_SPECS), help="figure identifier")
    report.add_argument("--store", required=True, help="existing experiment store path")
    report.add_argument("--format", choices=("ascii", "markdown", "html"), default="markdown")
    report.add_argument("--output", default=None, help="write to this file instead of stdout")

    corpus = subparsers.add_parser("corpus", help="generate and summarize a synthetic corpus")
    corpus.add_argument("--suite", default="eembc", choices=sorted(SUITES))
    corpus.add_argument("--seed", type=int, default=2013)
    corpus.add_argument("--scale", type=float, default=1.0)

    oracle = subparsers.add_parser(
        "oracle",
        help="differential correctness fuzzing: execute programs before/after the spill pipeline",
    )
    oracle.add_argument("--seed", type=int, default=0, help="campaign seed (programs derive from it)")
    oracle.add_argument("--count", type=int, default=100, help="number of generated programs")
    oracle.add_argument(
        "--size",
        default="small",
        help="program size profile (tiny/small/medium/large)",
    )
    oracle.add_argument(
        "--allocators",
        default=None,
        help="comma-separated allocator names (default: every registered allocator, deduplicated)",
    )
    oracle.add_argument(
        "--targets",
        default=None,
        help=f"comma-separated targets (default: all of {sorted(ALL_TARGETS)})",
    )
    oracle.add_argument(
        "--registers",
        default=None,
        help="comma-separated register counts (default: 4, small enough to force spilling)",
    )
    oracle.add_argument(
        "--non-ssa",
        action="store_true",
        help="check the non-SSA lowering path (general graphs) instead of SSA",
    )
    oracle.add_argument(
        "--constrain",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "fuzz with machine-model constraints on this fraction of "
            "variables (restricts the allocator set to the constraint-aware "
            "family)"
        ),
    )
    oracle.add_argument("--jobs", type=int, default=1, help="worker processes for the fuzz batch")
    oracle.add_argument(
        "--store",
        default=None,
        help="experiment store path; the campaign manifest is recorded in it",
    )
    oracle.add_argument(
        "--no-minimize",
        action="store_true",
        help="report failures without delta-debugging them into reproducers",
    )
    oracle.add_argument(
        "--regressions",
        default="tests/oracle/regressions",
        help="directory for minimized reproducers (and for --replay)",
    )
    oracle.add_argument(
        "--replay",
        action="store_true",
        help="replay the regression corpus instead of fuzzing fresh programs",
    )
    _add_trace_argument(oracle, "campaign")

    trace = subparsers.add_parser(
        "trace",
        help="run the pipeline on an input under a live tracer and export the trace",
    )
    trace.add_argument("input", help="path to a .ir module or a graph .json/.json.gz")
    trace.add_argument("--allocator", default=None, help=f"one of {available_allocators()} (default BFPL)")
    trace.add_argument("--registers", type=int, default=None, help="register count (default 8)")
    trace.add_argument(
        "--target",
        default=None,
        help=f"one of {sorted(ALL_TARGETS)} (default {DEFAULT_TARGET}; ignored for graph JSON inputs)",
    )
    trace.add_argument("--pipeline", default=None, help="pipeline spec (same forms as allocate)")
    trace.add_argument("--no-opt", action="store_true", help="skip the loadstore_opt stage")
    trace.add_argument(
        "--store",
        default=None,
        help="experiment store path; store hit/miss counters appear in the trace",
    )
    trace.add_argument(
        "--jobs", type=int, default=1, help="worker processes (their spans merge into extra lanes)"
    )
    trace.add_argument(
        "--format",
        choices=("text", "jsonl", "chrome"),
        default="text",
        help="text summary, repro-trace JSONL, or a Chrome/Perfetto trace-event JSON",
    )
    trace.add_argument(
        "-o", "--output", default=None, help="write to this file instead of stdout"
    )

    stats = subparsers.add_parser(
        "stats", help="summarize a repro-trace JSONL file (spans, counters, gauges)"
    )
    stats.add_argument("input", help="path to a trace .jsonl written by trace/--trace")
    stats.add_argument(
        "--top", type=int, default=30, help="show at most this many span aggregates"
    )

    bench_diff = subparsers.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json files (latest entries) and flag regressions",
    )
    bench_diff.add_argument("old", help="baseline bench file (history or flat payload)")
    bench_diff.add_argument("new", help="candidate bench file (history or flat payload)")
    bench_diff.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative change in the bad direction that counts as a regression (default 0.25)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the allocation service (durable queue + workers + HTTP API)",
    )
    serve.add_argument(
        "--store",
        required=True,
        help="SQLite experiment store the workers read/write (the cache)",
    )
    serve.add_argument(
        "--queue",
        default=None,
        help="job-queue database (default: derived from --store, *.queue.sqlite)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVICE_PORT,
        help=f"bind port (default {DEFAULT_SERVICE_PORT}; 0 picks a free one)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads draining the queue (0 = accept-only, jobs stay pending)",
    )

    submit = subparsers.add_parser(
        "submit", help="submit an allocation job to a running service"
    )
    submit.add_argument(
        "--url", default=DEFAULT_SERVICE_URL, help=f"server base URL (default {DEFAULT_SERVICE_URL})"
    )
    submit.add_argument(
        "--input", default=None, help="path to a .ir module or a graph .json/.json.gz"
    )
    submit.add_argument(
        "--batch",
        default=None,
        metavar="MANIFEST",
        help=(
            "submit a batch manifest instead of a single input: a JSON object "
            '{"jobs": [...], "name", "client", "priority"} whose entries are '
            'submission bodies (an entry may use "input": PATH to load IR/graph '
            "from a file, relative to the manifest)"
        ),
    )
    submit.add_argument(
        "--client",
        default="",
        help="client name for the queue's per-client fairness (default: untagged)",
    )
    submit.add_argument("--allocator", default="NL", help=f"one of {available_allocators()}")
    submit.add_argument("--registers", type=int, default=None, help="register count")
    submit.add_argument("--target", default=None, help="target machine (IR inputs only)")
    submit.add_argument("--name", default=None, help="job name (defaults to the input stem)")
    submit.add_argument("--non-ssa", action="store_true", help="use the non-SSA lowering")
    submit.add_argument("--no-opt", action="store_true", help="skip the loadstore_opt stage")
    submit.add_argument("--priority", type=int, default=0, help="queue priority (higher first)")
    submit.add_argument(
        "--max-attempts", type=int, default=None, help="retries before dead-lettering"
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes and print its result"
    )
    submit.add_argument(
        "--timeout", type=float, default=120.0, help="--wait timeout in seconds"
    )

    jobs = subparsers.add_parser("jobs", help="inspect a running service's jobs and stats")
    jobs.add_argument("id", nargs="?", default=None, help="show one job in full")
    jobs.add_argument(
        "--url", default=DEFAULT_SERVICE_URL, help=f"server base URL (default {DEFAULT_SERVICE_URL})"
    )
    jobs.add_argument("--state", default=None, help="filter the listing by state")
    jobs.add_argument("--limit", type=int, default=20, help="listing length (default 20)")
    jobs.add_argument(
        "--stats", action="store_true", help="print the /v1/stats payload instead of a listing"
    )

    subparsers.add_parser("list", help="list allocators, suites and targets")
    return parser


def _add_trace_argument(parser: argparse.ArgumentParser, subject: str) -> None:
    """``--trace PATH``, shared by allocate, sweep and oracle."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=f"record a telemetry trace of the {subject} (*.json Chrome trace, otherwise JSONL)",
    )


def _add_execution_arguments(parser: argparse.ArgumentParser, client: str) -> None:
    """The execution-backend flags shared by sweep and reproduce
    (read by :func:`_resolve_execution_backend`)."""
    parser.add_argument(
        "--backend",
        choices=("local", "service"),
        default="local",
        help="where missing cells execute: in process, or batched over running services",
    )
    parser.add_argument(
        "--endpoints",
        default=None,
        help="comma-separated service base URLs (required with --backend service)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="cells per service batch submission (service backend, default 32)",
    )
    parser.add_argument(
        "--client",
        default=client,
        help=f"client name for the service queue's per-client fairness (default {client!r})",
    )


def _open_command_store(path: str, *, existing: bool = False) -> ExperimentStore:
    """Open a command's ``--store``; with ``existing``, never create one.

    Read-only commands pass ``existing`` so a mistyped path is an error
    rather than a new empty store.  Either failure raises
    :class:`~repro.store.StoreFormatError` naming the path, which
    :func:`main` prints as one error line (exit 1).
    """
    if existing and not Path(path).is_file():
        raise StoreFormatError(f"cannot use store {path}: no such file")
    return open_store(path)


def _allocate_spec(args: argparse.Namespace, is_graph: bool) -> PipelineSpec:
    """Merge ``--pipeline`` with the explicit allocate flags into one spec.

    Explicit flags win over the spec form; unset flags fall back to the spec
    form, then to the legacy defaults (BFPL, 8 registers).  ``--target`` is
    documented as ignored for graph JSON inputs, so it is not even validated
    there (the caller warns separately).
    """
    spec = PipelineSpec.parse(
        args.pipeline,
        allocator=args.allocator,
        registers=args.registers,
        target=None if is_graph else args.target,
        opt=False if args.no_opt else None,
        constrain=getattr(args, "constrain", None),
    )
    if spec.registers is None:
        spec = dataclasses.replace(spec, registers=8)
    check = getattr(args, "check", None)  # the trace sub-command has no --check
    if check is not None:
        spec = dataclasses.replace(spec, check=check)
    return spec


def _emit_contexts(contexts, emit: str) -> int:
    """Print a batch of pipeline contexts in the requested form."""
    if emit == "ir":
        texts = [context.rewritten_ir() for context in contexts]
        if any(text is None for text in texts):
            return _error(
                "--emit ir needs the spill_code stage to run on IR input "
                "(graph JSON inputs carry no IR to rewrite)"
            )
        print("\n\n".join(texts))
        return 0
    if emit == "json":
        print(json.dumps([context.summary() for context in contexts], indent=2))
        return 0
    for context in contexts:
        problem, result = context.problem, context.result
        if problem is None:
            # A front-end-only stage chain produced no allocation problem.
            print(f"{context.name}: stages {', '.join(context.stages_run)} completed")
            continue
        print(f"{context.name}: |V|={len(problem.graph)} pressure={problem.max_pressure}")
        if result is None:
            print(f"  no allocation (stages: {', '.join(context.stages_run)})")
            continue
        print(
            f"  allocated={result.num_allocated} spilled={result.num_spilled} "
            f"cost={result.spill_cost:.2f}"
        )
        if result.spilled:
            print(f"  spilled variables: {', '.join(sorted(str(v) for v in result.spilled))}")
    return 0


def _export_trace(snapshot, path: str) -> None:
    """Export a trace snapshot by suffix: ``*.json`` Chrome, otherwise JSONL."""
    if path.endswith(".json"):
        write_chrome(snapshot, path)
    else:
        write_jsonl(snapshot, path)


def _run_input_pipeline(args: argparse.Namespace, tracer: Optional[Tracer] = None):
    """Parse ``args.input`` and run the pipeline over it (shared by
    ``allocate`` and ``trace``).

    Returns ``(contexts, None)`` on success or ``(None, exit_code)`` after
    printing the error.
    """
    input_path = Path(args.input)
    if not input_path.is_file():
        return None, _error(f"input file not found: {args.input}")
    if args.jobs < 1:
        return None, _error(f"--jobs must be >= 1, got {args.jobs}")
    is_graph = _is_graph_json(args.input)
    try:
        spec = _allocate_spec(args, is_graph)
    except PipelineError as error:
        return None, _error(str(error))

    try:
        if is_graph:
            if args.target is not None:
                print(
                    f"repro-alloc: warning: --target {args.target} is ignored for graph JSON inputs",
                    file=sys.stderr,
                )
            graph = load_graph(input_path)
            problems = [
                AllocationProblem(graph=graph, num_registers=spec.registers, name=args.input)
            ]
            functions = None
        else:
            module = parse_module(input_path.read_text(encoding="utf-8"))
            functions = list(module)
            problems = None
    except (ReproError, json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        return None, _error(f"invalid input file {args.input}: {error}")

    try:
        with Pipeline(spec, store=args.store, tracer=tracer) as pipeline:
            if functions is not None:
                contexts = pipeline.run_many(functions, jobs=args.jobs)
            else:
                contexts = [pipeline.run_problem(problem) for problem in problems]
    except ReproError as error:
        return None, _error(str(error))
    except (OSError, sqlite3.Error) as error:
        return None, _error(f"cannot use store {args.store}: {error}")
    return contexts, None


def _command_allocate(args: argparse.Namespace) -> int:
    """Run the pass pipeline on one input file and print the outcome."""
    tracer = Tracer() if args.trace else None
    contexts, code = _run_input_pipeline(args, tracer)
    if contexts is None:
        return code
    if tracer is not None:
        try:
            _export_trace(tracer.snapshot(), args.trace)
        except OSError as error:
            return _error(f"cannot write trace {args.trace}: {error}")
        print(f"trace: wrote {args.trace}", file=sys.stderr)
    return _emit_contexts(contexts, args.emit)


def _command_trace(args: argparse.Namespace) -> int:
    """Run the pipeline under a live tracer and export/print the trace."""
    tracer = Tracer()
    contexts, code = _run_input_pipeline(args, tracer)
    if contexts is None:
        return code
    snapshot = tracer.snapshot()
    if args.format == "text":
        text = render_text_summary(snapshot)
    elif args.format == "jsonl":
        text = "\n".join(snapshot_to_jsonl_lines(snapshot))
    else:
        text = json.dumps(snapshot_to_chrome(snapshot), indent=2, sort_keys=True)
    if args.output:
        output = Path(args.output)
        try:
            if output.parent != Path("."):
                output.parent.mkdir(parents=True, exist_ok=True)
            output.write_text(text + "\n", encoding="utf-8")
        except OSError as error:
            return _error(f"cannot write trace {args.output}: {error}")
        print(f"wrote {args.output} ({len(snapshot.events)} span(s))")
    else:
        print(text)
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    """Summarize a previously-exported repro-trace JSONL file."""
    try:
        snapshot = read_jsonl(args.input)
    except (ReproError, OSError) as error:
        return _error(str(error))
    print(render_text_summary(snapshot, top=args.top))
    return 0


def _command_bench_diff(args: argparse.Namespace) -> int:
    """Compare the latest entries of two bench files; exit 1 on regressions."""
    from repro.telemetry.bench import diff_entries, latest_entry, render_bench_diff

    try:
        old_entry = latest_entry(args.old)
        new_entry = latest_entry(args.new)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        return _error(str(error))
    diff = diff_entries(old_entry, new_entry, threshold=args.threshold)
    print(render_bench_diff(diff, old_label="old", new_label="new"))
    return 0 if diff.ok else 1


def _emit_diagnostics(diagnostics, fmt: str) -> int:
    """Print diagnostics in the requested form; exit 1 on any error finding."""
    from repro.check import diagnostics_to_json, errors_of, render_diagnostics

    if fmt == "json":
        print(json.dumps(diagnostics_to_json(diagnostics), indent=2))
    else:
        if diagnostics:
            print(render_diagnostics(diagnostics))
        errors = len(errors_of(diagnostics))
        print(
            f"{len(diagnostics)} diagnostic(s), {errors} error(s)"
            if diagnostics
            else "no diagnostics"
        )
    return 1 if errors_of(diagnostics) else 0


def _command_check(args: argparse.Namespace) -> int:
    """Statically verify an IR module and report typed diagnostics."""
    from repro.check import Diagnostic, Location, check_ir_function, filter_diagnostics
    from repro.errors import ParseError

    input_path = Path(args.input)
    if not input_path.is_file():
        return _error(f"input file not found: {args.input}")
    select = _csv_names(args.select) if args.select else None
    ignore = _csv_names(args.ignore) if args.ignore else None
    try:
        text = input_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return _error(f"cannot read {args.input}: {error}")
    try:
        module = parse_module(text, name=input_path.stem)
    except ParseError as error:
        # Surface the syntax failure through the same diagnostic pipeline as
        # the semantic checks, so --format json consumers see one shape.
        message = error.raw_message
        if error.line is not None:
            message = f"{message} (line {error.line})"
        diagnostic = Diagnostic(
            code="PARSE001",
            message=message,
            location=Location(function=error.function, block=error.block),
            checker="parse",
        )
        return _emit_diagnostics(
            filter_diagnostics([diagnostic], select=select, ignore=ignore), args.format
        )

    functions = list(module)
    if args.function is not None:
        functions = [f for f in functions if f.name == args.function]
        if not functions:
            available = sorted(f.name for f in module)
            return _error(f"no function {args.function!r} in {args.input}; found {available}")
    diagnostics = []
    for function in functions:
        diagnostics.extend(check_ir_function(function, ssa=args.ssa))
    return _emit_diagnostics(
        filter_diagnostics(diagnostics, select=select, ignore=ignore), args.format
    )


def _command_figure(args: argparse.Namespace) -> int:
    """Regenerate a figure and print its rendered table.

    With ``--store`` a paper figure is ``reproduce --figure NAME`` on the
    local backend.
    """
    if args.store is not None:
        if args.name in FIGURE_SPECS:
            return _sweep_and_draw(args, args.name)
        print(
            f"repro-alloc: warning: --store is ignored for {args.name} "
            "(it drives the allocators directly)",
            file=sys.stderr,
        )
    try:
        check_scale(args.scale)
        check_max_instances(args.max_instances)
    except ValueError as error:
        return _error(str(error))
    kwargs = {"seed": args.seed, "scale": args.scale}
    if args.max_instances is not None:
        kwargs["max_instances"] = args.max_instances
    print(ALL_FIGURES[args.name](**kwargs).rendered)
    return 0


# ---------------------------------------------------------------------- #
# sweep -> aggregate -> report pipeline
# ---------------------------------------------------------------------- #
def _resolve_sweep_spec(args: argparse.Namespace) -> Optional[FigureSpec]:
    """Merge ``--figure`` presets with explicit overrides into one spec."""
    preset = FIGURE_SPECS.get(args.figure) if args.figure else None
    suite = args.suite or (preset.suite if preset else None)
    target = args.target or (preset.target if preset else None)
    allocators = _csv_names(args.allocators) if args.allocators else (
        list(preset.allocators) if preset else None
    )
    registers = _csv_ints(args.registers) if args.registers else (
        list(preset.register_counts) if preset else None
    )
    if suite is None or not allocators or not registers:
        return None
    return FigureSpec(suite, target, tuple(allocators), tuple(registers))


def _resolve_execution_backend(args: argparse.Namespace):
    """Build the sweep/reproduce execution backend from the shared flags.

    Raises :class:`ReproError` on a misconfiguration (missing endpoints,
    bad batch size) so callers render it as a clean exit-1 message.
    """
    from repro.experiments.backends import LocalPoolBackend, ServiceBackend

    if getattr(args, "backend", "local") != "service":  # `figure` has no backend flags
        return LocalPoolBackend()
    if not args.endpoints or not _csv_names(args.endpoints):
        raise ReproError("--backend service needs --endpoints URL[,URL...]")
    return ServiceBackend(
        _csv_names(args.endpoints),
        batch_size=args.batch_size,
        client=args.client,
    )


def _command_sweep(args: argparse.Namespace) -> int:
    """Run a (resumable) sweep into the experiment store and print its manifest."""
    try:
        spec = _resolve_sweep_spec(args)
    except ValueError as error:
        return _error(f"invalid --registers value: {error}")
    streamed = args.corpus is not None
    if spec is None and not streamed:
        return _error("sweep needs --figure or all of --suite/--allocators/--registers")
    if spec is None:
        try:
            allocators = _csv_names(args.allocators) if args.allocators else None
            registers = _csv_ints(args.registers) if args.registers else None
        except ValueError as error:
            return _error(f"invalid --registers value: {error}")
        if not allocators or not registers:
            return _error(
                "--corpus sweeps need --allocators and --registers (or a --figure preset)"
            )
        spec = FigureSpec(args.suite or "eembc", args.target, tuple(allocators), tuple(registers))
    config = ExperimentConfig(
        allocators=list(spec.allocators),
        register_counts=list(spec.register_counts),
        verify=not args.no_verify,
        skip_trivial=args.skip_trivial,
        jobs=args.jobs,
    )
    try:
        config.validate()
        check_scale(args.scale)
        check_max_instances(args.max_instances)
        execution = _resolve_execution_backend(args)
    except (ReproError, ValueError) as error:
        return _error(str(error))
    tracer = Tracer() if args.trace else None
    with _open_command_store(args.store) as store:
        with use_tracer(tracer) if tracer is not None else nullcontext():
            try:
                if streamed:
                    stream = CorpusStream(
                        args.corpus,
                        suite=args.suite or spec.suite or "eembc",
                        target=spec.target,
                        seed=args.seed,
                    )
                    run_streamed_experiment(
                        stream,
                        config,
                        store,
                        backend=execution,
                        window=args.window,
                        resume=not args.no_resume,
                        max_instances=args.max_instances,
                        suite="corpus",
                        target=stream.target.name,
                        seed=args.seed,
                    )
                else:
                    corpus = build_corpus(
                        spec.suite, target=spec.target, seed=args.seed, scale=args.scale
                    )
                    run_experiment(
                        corpus,
                        config,
                        max_instances=args.max_instances,
                        store=store,
                        resume=not args.no_resume,
                        backend=execution,
                    )
            except ReproError as error:
                return _error(str(error))
            except ValueError as error:
                return _error(str(error))
        manifest = store.manifests()[-1]
        store_cells = len(store)
        backend = store.backend
    if tracer is not None:
        try:
            _export_trace(tracer.snapshot(), args.trace)
        except OSError as error:
            return _error(f"cannot write trace {args.trace}: {error}")
        print(f"trace: wrote {args.trace}", file=sys.stderr)
    print(f"sweep complete: store={args.store} backend={backend} store_cells={store_cells}")
    print(
        f"suite={manifest.suite} target={manifest.target} seed={manifest.seed} "
        f"scale={manifest.scale} git_rev={manifest.git_rev} run_id={manifest.run_id}"
    )
    print(
        f"instances={manifest.instances} cells={manifest.cells_total} "
        f"computed={manifest.cells_computed} cached={manifest.cells_cached} "
        f"hit_rate={manifest.hit_rate:.3f} wall={manifest.wall_time_seconds:.2f}s"
    )
    print(render_cache_split(manifest))
    return 0


def _command_merge_batches(args: argparse.Namespace) -> int:
    """Fuse shard stores into one destination store (conflict-checked)."""
    from repro.errors import MergeConflictError
    from repro.store.merge import merge_batches

    missing = [source for source in args.sources if not Path(source).is_file()]
    if missing:
        return _error(f"shard store(s) not found: {', '.join(missing)}")
    try:
        report = merge_batches(args.into, args.sources)
    except MergeConflictError as error:
        return _error(str(error))
    except (ReproError, OSError, sqlite3.Error) as error:
        return _error(str(error))
    print(
        f"merged {report.sources} shard(s) into {args.into}: "
        f"added={report.added} deduped={report.deduped} "
        f"manifests={report.manifests_added}"
    )
    return EXIT_OK


def _command_reproduce(args: argparse.Namespace) -> int:
    """Sweep one figure's corpus through a store and print the figure."""
    return _sweep_and_draw(args, args.figure)


def _sweep_and_draw(args: argparse.Namespace, name: str) -> int:
    """Sweep figure ``name``'s corpus through ``args.store`` and print it
    (``reproduce``, and ``figure NAME --store`` with the local defaults).

    The figure text goes to **stdout** and everything else to stderr, so
    ``reproduce --backend local`` and ``reproduce --backend service`` can be
    byte-compared directly (the e2e test and the CI distributed-sweep job
    do exactly that).  A warm store completes with zero allocator calls.
    """
    spec = FIGURE_SPECS[name]
    config = ExperimentConfig(
        allocators=list(spec.allocators),
        register_counts=list(spec.register_counts),
        jobs=getattr(args, "jobs", 1),
    )
    try:
        config.validate()
        check_scale(args.scale)
        check_max_instances(args.max_instances)
        execution = _resolve_execution_backend(args)
    except (ReproError, ValueError) as error:
        return _error(str(error))
    try:
        with _open_command_store(args.store) as store:
            corpus = build_corpus(
                spec.suite, target=spec.target, seed=args.seed, scale=args.scale
            )
            records = run_experiment(
                corpus,
                config,
                max_instances=args.max_instances,
                store=store,
                backend=execution,
            )
            manifest = store.manifests()[-1]
    except ReproError as error:
        return _error(str(error))
    except (OSError, sqlite3.Error) as error:
        return _error(f"cannot use store {args.store}: {error}")
    print(
        f"reproduce {name}: backend={execution.name} store={args.store} "
        f"cells={manifest.cells_total} computed={manifest.cells_computed} "
        f"cached={manifest.cells_cached}",
        file=sys.stderr,
    )
    print(ALL_FIGURES[name](records=records).rendered)
    return EXIT_OK


def _mixed_corpus_error(manifests, suites: Optional[set] = None) -> Optional[str]:
    """Detect sweeps of one suite over *different* corpora in the same store.

    Instance names are seed/scale-independent, so normalizing records of two
    corpus builds of the same suite against each other would silently divide
    by the wrong optimum.  The run manifests carry the provenance to catch
    this before it corrupts a figure.
    """
    combos: dict = {}
    for manifest in manifests:
        if manifest.suite is None:
            continue
        if suites is not None and manifest.suite not in suites:
            continue
        combos.setdefault(manifest.suite, set()).add((manifest.seed, manifest.scale))
    mixed = {suite: sorted(c) for suite, c in combos.items() if len(c) > 1}
    if not mixed:
        return None
    detail = "; ".join(
        f"{suite} swept with " + ", ".join(f"(seed={seed}, scale={scale})" for seed, scale in combos)
        for suite, combos in sorted(mixed.items())
    )
    return (
        f"store mixes different corpus builds of the same suite ({detail}); "
        "records would normalize against the wrong optimum — keep one store "
        "per corpus configuration"
    )


def _command_aggregate(args: argparse.Namespace) -> int:
    """Summarize the store's records through the standard statistics."""
    with _open_command_store(args.store, existing=True) as store:
        records = store.records()
        manifests = store.manifests()
    suites = {FIGURE_SPECS[args.figure].suite} if args.figure else None
    mixed = _mixed_corpus_error(manifests, suites)
    if mixed:
        return _error(mixed)
    if args.figure:
        records = FIGURE_SPECS[args.figure].select(records)
    if not records:
        return _error(f"no matching records in store {args.store}; run `repro-alloc sweep` first")
    if not any(record.allocator.lower() == "optimal" for record in records):
        return _error(
            "no records could be normalized: the store has no 'Optimal' baseline "
            "cells for these instances — include Optimal in the sweep's --allocators"
        )
    allocators = sorted({record.allocator for record in records})
    register_counts = sorted({record.num_registers for record in records})
    # The store's own grid, drawn as a mean figure.
    spec = FigureSpec("", None, allocators, register_counts, "Aggregate - mean normalized allocation cost")
    result = draw_figure("aggregate", spec, records=records)
    print(result.rendered)
    instances = len({record.instance for record in records})
    print(
        f"records={len(records)} instances={instances} allocators={len(allocators)} "
        f"register_counts={len(register_counts)} unbounded={result.unbounded_records}"
    )
    return 0


def _command_report(args: argparse.Namespace) -> int:
    """Render one figure from store records, without running any allocator."""
    spec = FIGURE_SPECS[args.name]
    with _open_command_store(args.store, existing=True) as store:
        records = spec.select(store.records())
        manifests = store.manifests()
    mixed = _mixed_corpus_error(manifests, {spec.suite})
    if mixed:
        return _error(mixed)
    if not records:
        return _error(
            f"no records for {args.name} in store {args.store}; "
            f"run `repro-alloc sweep --figure {args.name}` first"
        )
    if not any(record.allocator.lower() == "optimal" for record in records):
        return _error(
            f"store has no 'Optimal' baseline cells for {args.name}; the figure "
            "normalizes against Optimal — include it in the sweep"
        )
    result = ALL_FIGURES[args.name](records=records)
    if args.format == "ascii":
        text = result.rendered
    elif args.format == "markdown":
        text = render_markdown_report(result)
    else:
        text = render_html_report(result)
    if args.output:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _command_corpus(args: argparse.Namespace) -> int:
    """Build a corpus and print a summary line per instance."""
    try:
        check_scale(args.scale)
    except ValueError as error:
        return _error(str(error))
    corpus = build_corpus(args.suite, seed=args.seed, scale=args.scale)
    print(f"suite={corpus.suite} target={corpus.target} seed={corpus.seed} instances={len(corpus)}")
    for key, value in corpus.summary().items():
        print(f"  {key}: {value}")
    for problem in corpus:
        chordality = "chordal" if problem.is_chordal else "general"
        print(
            f"  {problem.name}: |V|={len(problem.graph)} |E|={problem.graph.num_edges()} "
            f"pressure={problem.max_pressure} ({chordality})"
        )
    return 0


def _command_oracle(args: argparse.Namespace) -> int:
    """Run a differential fuzz campaign (or replay the regression corpus)."""
    from repro.oracle import (
        CampaignConfig,
        check_function,
        load_regressions,
        run_campaign,
    )

    regressions = Path(args.regressions)
    if args.replay:
        cases = load_regressions(regressions)
        if not cases:
            print(f"no regression cases under {regressions}")
            return 0
        failed = 0
        for case in cases:
            check = check_function(
                case.function,
                case.allocator or "NL",
                case.target or DEFAULT_TARGET,
                case.registers or 4,
                ssa=case.ssa,
                constrain=case.constrain,
            )
            print(f"{case.path.name}: {check.status}")
            if check.failed:
                failed += 1
                print(f"  {check.detail}")
        print(f"replayed {len(cases)} regression case(s), {failed} failing")
        return 1 if failed else 0

    try:
        config = CampaignConfig(
            seed=args.seed,
            count=args.count,
            size=args.size,
            allocators=tuple(_csv_names(args.allocators)) if args.allocators else (),
            targets=tuple(_csv_names(args.targets)) if args.targets else (),
            register_counts=(
                tuple(_csv_ints(args.registers)) if args.registers else (4,)
            ),
            ssa=not args.non_ssa,
            jobs=args.jobs,
            minimize_failures=not args.no_minimize,
            constrain=args.constrain,
        ).validate()
    except ValueError as error:
        return _error(str(error))

    tracer = Tracer() if args.trace else None
    try:
        if args.store is not None:
            with _open_command_store(args.store) as store:
                result = run_campaign(
                    config, store=store, regressions_dir=regressions, tracer=tracer
                )
        else:
            result = run_campaign(config, regressions_dir=regressions, tracer=tracer)
    except ReproError as error:
        return _error(str(error))
    except sqlite3.Error as error:
        return _error(f"cannot use store {args.store}: {error}")
    except OSError as error:
        # Either the store file or the regressions directory is unusable.
        return _error(
            f"campaign I/O failed (store={args.store}, regressions={regressions}): {error}"
        )
    if tracer is not None:
        try:
            _export_trace(tracer.snapshot(), args.trace)
        except OSError as error:
            return _error(f"cannot write trace {args.trace}: {error}")
        print(f"trace: wrote {args.trace}", file=sys.stderr)
    print("\n".join(result.summary_lines()))
    return 0 if result.passed else 1


def _command_serve(args: argparse.Namespace) -> int:
    """Run the allocation service until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.service.server import AllocationService

    try:
        service = AllocationService(
            args.store,
            args.queue,
            workers=args.workers,
            host=args.host,
            port=args.port,
        ).start()
    except ReproError as error:
        return _error(str(error))
    except OSError as error:
        return _error(f"cannot bind {args.host}:{args.port}: {error}")
    print(
        f"serving on {service.url} "
        f"(store {service.store_path}, queue {service.queue_path}, "
        f"{args.workers} worker(s))",
        file=sys.stderr,
    )
    if service.recovered:
        print(
            f"recovered {len(service.recovered)} interrupted job(s) from the queue",
            file=sys.stderr,
        )
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        stop.wait()
    finally:
        # Graceful: running jobs finish, pending jobs stay pending in the
        # durable queue for the next `serve` to re-claim.
        service.shutdown(drain=True)
    print("shutdown: workers drained, queue closed", file=sys.stderr)
    return EXIT_OK


def _submission_body(args: argparse.Namespace) -> dict:
    """Build a POST /v1/jobs body from the submit flags + input file."""
    path = Path(args.input)
    if not path.exists():
        raise ReproError(f"input file not found: {args.input}")
    name = args.name or path.stem
    body: dict = {
        "allocator": args.allocator,
        "name": name,
        "ssa": not args.non_ssa,
        "opt": not args.no_opt,
        "priority": args.priority,
    }
    if args.registers is not None:
        body["registers"] = args.registers
    if args.max_attempts is not None:
        body["max_attempts"] = args.max_attempts
    if args.client:
        body["client"] = args.client
    if path.name.endswith((".json", ".json.gz")):
        from repro.graphs.io import graph_to_dict

        body["graph"] = graph_to_dict(load_graph(path), name=name)
    else:
        body["ir"] = path.read_text()
        if args.target is not None:
            body["target"] = args.target
    return body


def _batch_body(args: argparse.Namespace) -> dict:
    """Load a ``--batch`` manifest into a POST /v1/batches body.

    The manifest is ``{"jobs": [...]}`` plus optional batch-level ``name``,
    ``client``, ``priority`` and ``max_attempts``.  Each entry is a
    submission body; ``"input": PATH`` (relative to the manifest file)
    loads a ``.ir`` module or graph JSON into the entry in place.
    """
    manifest_path = Path(args.batch)
    if not manifest_path.is_file():
        raise ReproError(f"batch manifest not found: {args.batch}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ReproError(f"invalid batch manifest {args.batch}: {error}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("jobs"), list):
        raise ReproError(
            f'batch manifest {args.batch} must be a JSON object with a "jobs" list'
        )
    jobs = []
    for position, entry in enumerate(manifest["jobs"]):
        if not isinstance(entry, dict):
            raise ReproError(f"batch manifest entry {position} must be a JSON object")
        entry = dict(entry)
        input_path = entry.pop("input", None)
        if input_path is not None:
            resolved = Path(input_path)
            if not resolved.is_absolute():
                resolved = manifest_path.parent / resolved
            if not resolved.is_file():
                raise ReproError(
                    f"batch entry {position}: input file not found: {input_path}"
                )
            name = entry.get("name") or resolved.stem
            if resolved.name.endswith((".json", ".json.gz")):
                from repro.graphs.io import graph_to_dict

                entry["graph"] = graph_to_dict(load_graph(resolved), name=name)
            else:
                entry["ir"] = resolved.read_text(encoding="utf-8")
            entry.setdefault("name", name)
        jobs.append(entry)
    body: dict = {"jobs": jobs}
    for field in ("name", "client", "priority", "max_attempts"):
        if field in manifest:
            body[field] = manifest[field]
    if args.client and "client" not in body:
        body["client"] = args.client
    return body


def _command_submit(args: argparse.Namespace) -> int:
    """Submit one job (or a --batch manifest); with --wait, follow it."""
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.batch is not None:
            response = client.submit_batch(_batch_body(args))
        else:
            response = client.submit(_submission_body(args))
        job = response["job"]
        status = "deduplicated" if response["deduped"] else "submitted"
        print(f"{status}: job {job['id']} ({job['state']})", file=sys.stderr)
        if not args.wait:
            print(job["id"])
            return EXIT_OK
        job = client.wait(job["id"], timeout=args.timeout)
    except ReproError as error:
        return _error(str(error))
    print(json.dumps(job, indent=2, sort_keys=True))
    if job["state"] != "done":
        return _error(f"job {job['id']} ended {job['state']}: {job.get('error')}")
    return EXIT_OK


def _command_jobs(args: argparse.Namespace) -> int:
    """Inspect a running service: one job, a listing, or /v1/stats."""
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return EXIT_OK
        if args.id is not None:
            print(json.dumps(client.job(args.id), indent=2, sort_keys=True))
            return EXIT_OK
        listing = client.jobs(state=args.state, limit=args.limit)
    except ReproError as error:
        return _error(str(error))
    for job in listing:
        print(
            f"{job['id']}  {job['state']:8}  prio={job['priority']:<3} "
            f"attempts={job['attempts']}/{job['max_attempts']}  "
            f"{job['allocator'] or '-'} R={job['registers'] if job['registers'] is not None else '-'}  "
            f"{job['name'] or ''}"
        )
    if not listing:
        print("no jobs", file=sys.stderr)
    return EXIT_OK


def _command_list(args: argparse.Namespace) -> int:
    """List the registered allocators, suites and targets."""
    print("allocators:", ", ".join(available_allocators()))
    print("suites:    ", ", ".join(sorted(SUITES)))
    print("targets:   ", ", ".join(sorted(ALL_TARGETS)))
    return 0


#: sub-command name -> handler; every handler returns the exit code.
_COMMANDS = {
    "allocate": _command_allocate,
    "check": _command_check,
    "figure": _command_figure,
    "sweep": _command_sweep,
    "merge-batches": _command_merge_batches,
    "reproduce": _command_reproduce,
    "aggregate": _command_aggregate,
    "report": _command_report,
    "corpus": _command_corpus,
    "oracle": _command_oracle,
    "trace": _command_trace,
    "stats": _command_stats,
    "bench-diff": _command_bench_diff,
    "serve": _command_serve,
    "submit": _command_submit,
    "jobs": _command_jobs,
    "list": _command_list,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "submit" and (args.input is None) == (args.batch is None):
        parser.error("submit needs exactly one of --input or --batch")
    try:
        return _COMMANDS[args.command](args)
    except StoreFormatError as error:
        return _error(str(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
