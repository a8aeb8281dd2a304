"""Workload ``service_mixed``: ``repro-alloc serve`` driven the way its callers drive it.

The server (``--workers 1``) runs in its own process with a fresh store and
queue.  One client process plays, in turn, the service's two callers in the
repository:

* ``submit --wait`` posts one job and follows it to its end before the
  next (a closed loop).  The jobs are seeded 60-statement functions; every
  block of four holds, in seeded order, two fresh functions (allocate miss,
  store write), one exact resubmission (deduplicated by job key) and one
  earlier function resent with ``"opt": false`` (a new job key whose
  allocate cell is read from the store).  No caller sets this 2:1:1 mix: it
  is an assumption, made so that each of the three paths through the front
  end gets samples.
* the service sweep backend (``reproduce --backend service``, ``sweep
  --backend service``) is ``ServiceBackend`` itself, sweeping the first
  ``BATCH_INSTANCES`` instances of Figure 9 one instance (window) at a
  time: every cell becomes a member of a ``POST /v1/batches`` job of up to
  32, every batch is posted before any is polled, and the records come back
  into a local store.  A window is swept before every
  ``JOBS_PER_WINDOW``-th single job.

HTTP, the front end on the request thread, the queue and the store dominate
the single jobs; the batches add batch normalisation, batch job keys, batch
execution (the pipeline once per cell) and a queue holding several jobs.

Every poll is at a fixed interval without jitter: ``ServiceClient.wait``'s
jittered back-off quantised latencies to its sleep schedule (job p50
100-113 ms against 66-75 ms with a fixed 2 ms poll, for about 45 ms of
server-side work).  A batch runs for a second or more, so it is polled every
``BATCH_POLL_S``: polled every 10 ms, the client's requests took the
server's CPU, and four two-instance windows took 36 s instead of 13-17 s.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from measure import (
    BENCH_DIR,
    Metric,
    Samples,
    Timer,
    import_layers,
    program_env,
    throughput_metric,
    timing_metric,
)
from outcome import Outcome, TracedOutcome
from sweep_figure9 import CORPUS_SEED, SPEC, check_cells, sweep

from repro.alloc.base import get_allocator
from repro.errors import ServiceError
from repro.experiments.backends import ServiceBackend
from repro.experiments.runner import InstanceRecord
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.pipeline import Pipeline
from repro.service.client import ServiceClient
from repro.service.jobs import TERMINAL_STATES
from repro.store.base import open_store
from repro.workloads.corpus import Corpus, build_corpus
from repro.workloads.programs import GeneratorProfile, generate_function

#: one loop level keeps the differential oracle, run on every distinct
#: returned function, at about 40 ms a function (two levels: about 100 ms);
#: protected loop counters keep every function inside the oracle's budget.
PROFILE = GeneratorProfile(statements=60, accumulators=10, loop_depth=1, protect_loop_counters=True)
TARGET = "st231"
REGISTERS = 6
#: fixed poll interval of a single job (no back-off, no jitter).
POLL_S = 0.002
#: fixed poll interval of a batch.
BATCH_POLL_S = 0.1
#: one block of the job mix, shuffled per block.
BLOCK = ("fresh", "fresh", "dedup", "warm")
#: ``spill_cost_ratio`` is taken over the seed's first functions.
RATIO_FUNCTIONS = 24
#: fewest fresh jobs a run takes, even past its time budget.
MIN_FRESH = 100
#: Figure 9's first instances, swept through the sweep backend by every run,
#: one instance (36 cells, posted as batches of 32 and 4) per window.  The
#: next instance is the untimed warm-up.
BATCH_INSTANCES = 6
#: single jobs between two windows.
JOBS_PER_WINDOW = 30
#: server launches behind ``setup_s`` (after one untimed).
LAUNCHES = 4
#: single jobs and windows in the traced run's fixed unit.
TRACED_JOBS = 40
TRACED_WINDOWS = 2


def function_text(seed: int, index: int) -> str:
    """Printed IR of the seed's ``index``-th function (index -1: the warm-up)."""
    rng = random.Random(f"service_mixed/{seed}/{index}")
    name = f"svc{index}" if index >= 0 else "svc_warmup"
    return print_function(generate_function(name, PROFILE, rng=rng))


def body(text: str, opt: bool = True) -> Dict[str, Any]:
    return {"ir": text, "name": "job", "allocator": "NL", "target": TARGET, "registers": REGISTERS, "opt": opt}


def job_plan(seed: int) -> Iterator[Tuple[str, int]]:
    """Endless seeded mix of ``(kind, function index)``.

    Fresh jobs take the next unused function; a resubmission repeats a
    random earlier fresh one; an ``opt: false`` job takes an earlier fresh
    function not yet resent that way (resending it twice would dedupe).
    """
    rng = random.Random(f"service_mixed/plan/{seed}")
    fresh: List[int] = []
    unoptimised: List[int] = []
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "warm" and len(unoptimised) < len(fresh):
                index = rng.choice([i for i in fresh if i not in unoptimised])
                unoptimised.append(index)
            elif kind == "dedup" and fresh:
                index = rng.choice(fresh)
            else:
                kind, index = "fresh", len(fresh)
                fresh.append(index)
            yield kind, index


class Server:
    """One ``repro-alloc serve --workers 1`` process on a fresh store and queue."""

    def __init__(self, scratch: str, name: str, launcher: Optional[List[str]] = None) -> None:
        store = os.path.join(scratch, f"{name}.sqlite")
        serve = ["serve", "--store", store, "--queue", store + ".queue", "--port", "0", "--workers", "1"]
        command = [sys.executable] + (launcher + ["--"] if launcher else ["-m", "repro.cli"]) + serve
        self.process = subprocess.Popen(
            command, env=program_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        try:
            seen = []
            for line in self.process.stderr:
                if line.startswith("serving on "):
                    break
                seen.append(line)
            else:
                raise ServiceError(f"server did not start: {''.join(seen).strip()}")
            self.client = ServiceClient(line.split()[2])
            self.client.health()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@dataclass
class Reply:
    job: Dict[str, Any]
    deduped: bool
    polls: int


def send(client: ServiceClient, payload: Dict[str, Any]) -> Reply:
    """Submit one job and poll it to a terminal state at a fixed interval."""
    response = client.submit(payload)
    job, polls = response["job"], 0
    if job["state"] in TERMINAL_STATES and not response["deduped"]:
        job = client.job(job["id"])  # finished before the reply: fetch its result
    while job["state"] not in TERMINAL_STATES:
        time.sleep(POLL_S)
        job = client.job(job["id"])
        polls += 1
    return Reply(job, response["deduped"], polls)


class Mix:
    """The closed loop of single jobs: plans, sends and checks the seed's jobs."""

    def __init__(self, seed: int, outcome: Outcome) -> None:
        self.seed = seed
        self.outcome = outcome
        self.plan = job_plan(seed)
        self.sent = 0
        self.texts: Dict[int, str] = {}
        #: (function, opt) -> the job's single function summary.
        self.results: Dict[Tuple[int, bool], Dict[str, Any]] = {}
        self.samples = {kind: Samples() for kind in ("fresh", "dedup", "warm", "all")}
        self.replies: List[Reply] = []

    def step(self, client: ServiceClient, timer: Timer, span: Any = None) -> None:
        kind, index = next(self.plan)
        if index not in self.texts:
            self.texts[index] = function_text(self.seed, index)
        payload = body(self.texts[index], opt=kind != "warm")
        label = f"{kind} {self.sent}"
        self.sent += 1

        def call() -> Reply:
            return send(client, payload) if span is None else span(lambda: send(client, payload))

        timed = self.outcome.attempt(label, lambda: timer.time((self.samples["all"], self.samples[kind]), call))
        if timed is None:
            return
        reply = timed[0]
        self.replies.append(reply)
        if reply.job["state"] != "done":
            self.outcome.fail(label, f"job ended {reply.job['state']}: {reply.job.get('error')}")
        elif reply.deduped != (kind == "dedup"):
            self.outcome.fail(label, f"deduped={reply.deduped} for a {kind} job")
        elif kind != "dedup":
            summary = reply.job["result"]["functions"][0]
            self.results[(index, kind == "fresh")] = summary
            if not summary["verify"]["feasible"]:
                self.outcome.fail(label, "verify report infeasible")

    def check(self) -> None:
        """Oracle on every distinct returned function; opt:false spills the same."""
        for (index, opt), summary in sorted(self.results.items()):
            label = f"function {index} opt={opt}"
            self.outcome.check_oracle(label, self.texts[index], summary["rewritten_ir"])
            other = self.results.get((index, not opt))
            if other is not None and other["spilled"] != summary["spilled"]:
                self.outcome.fail(label, "opt:false job spilled a different set")


class BatchClient(ServiceClient):
    """``ServiceBackend``'s client: waits at a fixed interval without
    back-off or jitter, and keeps the jobs it waited for."""

    def __init__(self, base_url: str) -> None:
        super().__init__(base_url)
        self.finished: List[Dict[str, Any]] = []

    def wait(self, job_id: str, *, timeout: float = 60.0, **_: Any) -> Dict[str, Any]:
        job = super().wait(job_id, timeout=timeout, poll=BATCH_POLL_S, max_poll=BATCH_POLL_S, backoff=1.0, jitter=0.0)
        self.finished.append(job)
        return job


def cell_of(record: InstanceRecord) -> Tuple[str, str, int]:
    return record.instance, record.allocator, record.num_registers


class Batches:
    """The sweep backend's part: Figure 9's first instances, window by window."""

    def __init__(self, seed: int, outcome: Outcome) -> None:
        corpus = build_corpus(SPEC.suite, target=SPEC.target, seed=CORPUS_SEED)
        # Each window keeps the whole corpus's provenance, as a window of
        # ``reproduce`` would.
        parts = [
            Corpus(suite=corpus.suite, target=corpus.target, seed=corpus.seed, scale=corpus.scale,
                   problems=[problem], program_of={0: corpus.program_of[index]})
            for index, problem in enumerate(corpus.problems[: BATCH_INSTANCES + 1])
        ]
        self.warm_up_window = parts.pop()
        random.Random(f"service_mixed/windows/{seed}").shuffle(parts)
        self.windows = parts
        self.outcome = outcome
        self.swept = 0
        self.samples = Samples()
        self.records: Dict[str, List[InstanceRecord]] = {}
        #: every batch job waited for, as its final state.
        self.jobs: List[Dict[str, Any]] = []

    @property
    def cells(self) -> int:
        return BATCH_INSTANCES * len(SPEC.allocators) * len(SPEC.register_counts)

    def warm_up(self, url: str, store: Any) -> None:
        sweep(self.warm_up_window, store, ServiceBackend([url], client_factory=BatchClient))

    def step(self, url: str, store: Any, timer: Timer,
             span: Optional[Callable[[Callable[[], Any], BatchClient], Any]] = None) -> None:
        """Sweep the next window through ``ServiceBackend`` as ``reproduce`` does."""
        window = self.windows[self.swept]
        self.swept += 1
        instance = window.problems[0].name
        client = BatchClient(url)
        backend = ServiceBackend([url], client="reproduce", client_factory=lambda _url: client)

        def call() -> List[InstanceRecord]:
            return sweep(window, store, backend) if span is None else span(lambda: sweep(window, store, backend), client)

        records = self.outcome.attempt(f"batch {instance}", lambda: timer.time(self.samples, call)[0])
        self.jobs.extend(client.finished)
        self.records[instance] = records or []

    def check(self) -> None:
        """Every cell the service returned equals the cell computed in
        process, and no cell beats its optimum."""
        for window in self.windows:
            instance = window.problems[0].name
            served = self.records.get(instance)
            if not served:
                continue  # its sweep failed, and was counted
            label = f"batch {instance}"
            local = {cell_of(record): record for record in sweep(window, None)}
            if sorted(map(cell_of, served)) != sorted(local):
                self.outcome.fail(label, f"{len(served)} cells served, {len(local)} expected")
            for record in served:
                expected = local.get(cell_of(record))
                if expected is not None and (record.spill_cost, record.num_spilled, record.spilled) != (
                    expected.spill_cost, expected.num_spilled, expected.spilled
                ):
                    self.outcome.fail(label, f"{cell_of(record)} differs from the cell computed in process")
            check_cells(served, self.outcome, kind="batch")


def interleave(server: Server, mix: Mix, batches: Batches, store: Any, more_jobs: Callable[[], bool],
               windows_due: int, every: int, during: bool = True, job_span: Any = None,
               window_span: Any = None) -> Timer:
    """Single jobs while ``more_jobs()``, with window ``k`` of ``windows_due``
    swept before single job ``k * every``; returns the single jobs' timer.

    A reference reading every third job: read every sixth, a slow spell
    between two readings reached the tail, and ``latency_p90_s`` of one
    seed varied from 0.076 s to 0.095 s across runs.
    """
    timer, window_timer = Timer(every=3, during=during), Timer(during=during)
    while more_jobs() or batches.swept < windows_due:
        if batches.swept < windows_due and mix.sent >= every * batches.swept:
            batches.step(server.client.base_url, store, window_timer, window_span)
        else:
            mix.step(server.client, timer, job_span)
    return timer


def spill_cost_ratio(seed: int, mix: Mix, outcome: Outcome) -> Metric:
    """NL over optimal spill cost on the seed's first functions, computed in
    process; where the service returned the same function, its cost must
    match the direct pipeline's."""
    pipeline = Pipeline.from_spec("NL", target=TARGET, registers=REGISTERS)
    optimal = get_allocator("Optimal")
    heuristic_total = optimal_total = 0.0
    for index in range(RATIO_FUNCTIONS):
        context = pipeline.run(parse_function(function_text(seed, index)))
        best = optimal.allocate(context.problem).spill_cost
        served = mix.results.get((index, True))
        if served is not None and served["spill_cost"] != context.result.spill_cost:
            outcome.fail(f"function {index}", "service cost differs from a direct pipeline run")
        if context.result.spill_cost < best - 1e-9:
            outcome.fail(f"function {index}", f"NL cost {context.result.spill_cost} below optimal {best}")
        heuristic_total += context.result.spill_cost
        optimal_total += best
    return Metric(heuristic_total / optimal_total, RATIO_FUNCTIONS)


def warm_up(client: ServiceClient) -> None:
    text = function_text(-1, -1)
    for payload in (body(text), body(text), body(text, opt=False)):
        send(client, payload)


def run(seed: int, seconds: float, scratch: str) -> Outcome:
    outcome = Outcome()
    Server(scratch, "launch-warm-up").stop()
    timer, starts = Timer(), Samples()
    for launch in range(LAUNCHES):
        # A launch lasts from the spawn until ``/healthz`` answers.
        server, _ = timer.time(starts, Server, scratch, f"run-{launch}")
        if launch < LAUNCHES - 1:
            server.stop()
    outcome.metrics["setup_s"] = timing_metric(starts)

    mix = Mix(seed, outcome)
    batches = Batches(seed, outcome)
    with server, open_store(os.path.join(scratch, "batch-records.sqlite")) as store:
        warm_up(server.client)
        with open_store(os.path.join(scratch, "batch-warm-up.sqlite")) as spare:
            batches.warm_up(server.client.base_url, spare)
        # The collection before each reference reading then skips the
        # client's long-lived objects: about 1 ms instead of about 40 ms.
        gc.freeze()
        started = time.perf_counter()

        def more_jobs() -> bool:
            return time.perf_counter() - started < seconds or len(mix.samples["fresh"]) < MIN_FRESH

        interleave(server, mix, batches, store, more_jobs, len(batches.windows), JOBS_PER_WINDOW)
        outcome.metrics["peak_rss_mb"] = Metric(server.peak_rss_mb())

    samples = mix.samples
    outcome.metrics["latency_p50_s"] = timing_metric(samples["fresh"], 50)
    outcome.metrics["latency_p90_s"] = timing_metric(samples["fresh"], 90)
    outcome.metrics["warm_latency_p50_s"] = timing_metric(samples["warm"], 50)
    outcome.metrics["dedup_latency_p50_s"] = timing_metric(samples["dedup"], 50)
    outcome.metrics["throughput_per_s"] = throughput_metric(batches.cells, batches.samples)
    mix.check()
    batches.check()
    outcome.metrics["spill_cost_ratio"] = spill_cost_ratio(seed, mix, outcome)
    return outcome


def traced(seed: int, out_dir, scratch: str) -> TracedOutcome:
    """Per-layer numbers: a fixed unit of ``TRACED_JOBS`` single jobs and
    ``TRACED_WINDOWS`` windows against an untraced server, then against one
    started through ``serve_traced.py``.

    Neither server gets a warm-up, so the traced unit holds only its own
    work (first-job lazy imports included, on both sides).
    """
    import trace_layers
    from repro.telemetry.export import read_jsonl

    outcome = TracedOutcome()
    imported = import_layers("repro.cli")
    starts = Samples()
    every = TRACED_JOBS // TRACED_WINDOWS

    def unit(server: Server, name: str, **spans: Any) -> Tuple[Mix, Batches, Timer]:
        mix, batches = Mix(seed, outcome), Batches(seed, outcome)
        with open_store(os.path.join(scratch, f"{name}-records.sqlite")) as store:
            timer = interleave(server, mix, batches, store, lambda: mix.sent < TRACED_JOBS,
                               TRACED_WINDOWS, every, during=False, **spans)
        return mix, batches, timer

    with Timer(during=False).time(starts, Server, scratch, "untraced")[0] as server:
        plain, plain_batches, _ = unit(server, "untraced")

    recorder = trace_layers.Recorder(time.perf_counter())
    trace_out = os.path.join(scratch, "server-trace.jsonl")
    launcher = [str(BENCH_DIR / "serve_traced.py"), "--base", repr(recorder.base), "--trace-out", trace_out]

    def job_span(call: Callable[[], Reply]) -> Reply:
        recorder.set_op("client-job")
        return recorder.span("op.job", "op", "op", call, lambda reply, span: span.set(op=reply.job["id"]))

    def window_span(call: Callable[[], Any], client: BatchClient) -> Any:
        # A window's operation is its batch jobs: the spans of all of them
        # cover it (see trace_layers.unattributed_seconds).
        recorder.set_op("client-window")
        return recorder.span("op.batch_window", "op", "op", call,
                             lambda _, span: span.set(op=",".join(job["id"] for job in client.finished)))

    with Server(scratch, "traced", launcher) as server:
        mix, batches, timer = unit(server, "traced", job_span=job_span, window_span=window_span)
    snapshot = trace_layers.combine(recorder.snapshot(), read_jsonl(trace_out))
    scale = timer.scale()
    jobs = [reply.job for reply in mix.replies if not reply.deduped] + batches.jobs
    outcome.finish(
        snapshot,
        scale=scale,
        per=1,
        extra={
            **imported,
            "service.start_s": timing_metric(starts).value,
            "service.job_s": sum(job["updated_at"] - job["created_at"] for job in jobs) * scale,
            "service.polls_per_job": sum(reply.polls for reply in mix.replies) / TRACED_JOBS,
        },
        overhead=(sum(mix.samples["all"].norm) + sum(batches.samples.norm))
        / (sum(plain.samples["all"].norm) + sum(plain_batches.samples.norm)),
        trace_path=out_dir / f"trace-service_mixed-{seed}.json",
    )
    mix.check()
    batches.check()
    return outcome
