"""Drift-controlled timing: the reference loop, samples and summary statistics.

CPU speed on a small shared machine drifts by tens of percent within
minutes, and changes within a second or two.  Every timed sample is
therefore paired with a fixed pure-Python reference loop timed just before
it and, every ``IN_SAMPLE_EVERY_S``, during it: the sample's seconds are
divided by the loop's mean seconds and rescaled by the loop's nominal time,
giving *reference-normalised seconds* (the time the sample would take on a
machine that runs the loop in exactly ``REF_NOMINAL_S``).  Raw seconds are
kept next to each normalised value.

Readings during a sample run on a helper thread on the sample's own CPU and
are taken as CPU time, which the sample's time then leaves out.  They never
run on the other vCPU: there, the loop slowed the program by about 20% and
made normalised totals worse, not better.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: objects built by one reference-loop pass.
REF_OBJECTS = 20_000
#: nominal seconds of one reference pass; normalised times are expressed
#: relative to it, so they read as seconds on a machine of that speed.
REF_NOMINAL_S = 0.015
#: seconds between two reference readings during a sample.
IN_SAMPLE_EVERY_S = 0.1

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: everything a run writes (stores, queues, traces) lives here.
OUT_DIR = BENCH_DIR / "_out"


class _Link:
    __slots__ = ("value", "tag", "next")

    def __init__(self, value: int, tag: int, next_link: Optional["_Link"]) -> None:
        self.value = value
        self.tag = tag
        self.next = next_link


def reference_pass() -> int:
    """One pass of the fixed reference work.

    Pure Python and free of any ``repro`` import, so a change to the program
    can never change it.  It allocates and walks a linked chain of small
    objects, fills a set and sorts tuples: the allocation-heavy interpreter
    work the program itself does.  A tight arithmetic loop tracked the
    program's speed worse than no normalisation at all.
    """
    head = None
    for i in range(REF_OBJECTS):
        head = _Link(i, (i * 31) & 1023, head)
    tags = set()
    acc = 0
    link = head
    while link is not None:
        tags.add(link.tag)
        acc ^= link.value << (link.tag & 7)
        link = link.next
    ordered = sorted((value & 255, value) for value in range(0, REF_OBJECTS, 3))
    return acc + len(tags) + len(ordered)


def reference_seconds() -> float:
    """Seconds of one reference reading: the mean of three back-to-back passes.

    The mean, not the fastest pass: the speed a sample runs at is the
    machine's average over the sample, and the fastest pass tracked it
    worst of the summaries tried.  The cyclic garbage collector is off
    meanwhile (the pass creates no cycles), so the reading does not depend
    on how many objects the program keeps alive.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(3):
            reference_pass()
        return (time.perf_counter() - started) / 3
    finally:
        gc.enable()


def reference_cpu_seconds() -> float:
    """CPU seconds of one reference pass on this thread, garbage collector off.

    For readings taken while other work shares the CPU: the pass's CPU
    time, unlike its wall time, leaves out the time the other work ran
    meanwhile.  On an otherwise idle CPU the two agree.
    """
    gc.disable()
    try:
        started = time.thread_time()
        reference_pass()
        return time.thread_time() - started
    finally:
        gc.enable()


class InSampleReadings:
    """Reference readings taken every ``IN_SAMPLE_EVERY_S`` seconds on a
    helper thread while a sample runs.

    CPU speed changes within a second or two, so the reading before a
    sample of a second or more cannot stand for all of it.  The helper
    thread shares the sample's CPU (``run.py`` pins the benchmark and its
    children to one), and each reading is the CPU time of one pass.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._read, daemon=True)

    def _read(self) -> None:
        while not self._stop.wait(IN_SAMPLE_EVERY_S):
            self.readings.append(reference_cpu_seconds())

    def __enter__(self) -> "InSampleReadings":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class Samples:
    """Paired raw/normalised samples of one quantity."""

    raw: List[float] = field(default_factory=list)
    norm: List[float] = field(default_factory=list)

    def add(self, raw: float, ref: float) -> None:
        self.raw.append(raw)
        self.norm.append(raw * REF_NOMINAL_S / ref)

    def __len__(self) -> int:
        return len(self.norm)


class Timer:
    """Times operations in normalised seconds.

    The reference loop is re-measured before every ``every``-th operation
    and, with ``during``, every ``IN_SAMPLE_EVERY_S`` during each operation
    (:class:`InSampleReadings`).  An operation's time less the CPU time of
    the readings during it is normalised by the mean of the latest reading
    before it and those during it.  Traced runs take no readings during an
    operation: their spans are wall time and would include the readings.
    """

    def __init__(self, every: int = 1, during: bool = True) -> None:
        self.every = every
        self.during = during
        self._calls = 0
        self.ref = reference_seconds()
        self.refs: List[float] = [self.ref]

    def recalibrate(self) -> None:
        self.ref = reference_seconds()
        self.refs.append(self.ref)

    def time(self, samples: Union[Samples, Sequence[Samples], None], fn: Callable[..., Any],
             *args: Any) -> Tuple[Any, float]:
        """Run ``fn(*args)``; add its time to ``samples`` (one or several);
        return (result, raw seconds)."""
        if self._calls % self.every == 0:
            # Every sample starts from a collected heap, so no sample pays
            # for garbage an earlier one (or the benchmark) left behind.
            gc.collect()
            self.recalibrate()
        self._calls += 1
        during = InSampleReadings()
        with during if self.during else contextlib.nullcontext():
            started = time.perf_counter()
            result = fn(*args)
            raw = time.perf_counter() - started
        raw -= sum(during.readings)
        ref = statistics.mean([self.ref] + during.readings)
        for target in () if samples is None else (samples,) if isinstance(samples, Samples) else samples:
            target.add(raw, ref)
        return result, raw

    def scale(self) -> float:
        """Factor turning raw seconds of this run into normalised seconds."""
        return REF_NOMINAL_S / statistics.median(self.refs)


# ---------------------------------------------------------------------- #
# summary statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> Optional[int]:
    """The highest whole percentile with at least ten samples beyond it."""
    if count <= 10:
        return None
    return int(math.floor(100.0 * (1.0 - 10.0 / count)))


@dataclass
class Metric:
    """One reported metric: its value and the evidence behind it (its unit
    is declared in ``BENCHMARK.json``)."""

    value: float
    count: int = 1
    raw: Optional[float] = None
    note: str = ""


def timing_metric(samples: Samples, q: float = 50.0) -> Metric:
    """Percentile ``q`` of normalised samples, with the raw percentile and,
    as a diagnostic, the highest percentile that has ten samples beyond it."""
    note = ""
    tail = tail_percentile(len(samples))
    if tail is not None:
        note = f"p{tail}={percentile(samples.norm, tail):.6g}s"
    return Metric(
        value=percentile(samples.norm, q),
        count=len(samples),
        raw=percentile(samples.raw, q),
        note=note,
    )


def throughput_metric(operations: int, samples: Samples) -> Metric:
    """Operations per normalised second over the summed sample time."""
    return Metric(
        value=operations / sum(samples.norm),
        count=len(samples),
        raw=operations / sum(samples.raw),
    )


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (Linux ``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------- #
# fresh processes
# ---------------------------------------------------------------------- #
def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_module(module: str) -> None:
    """Have a fresh interpreter import ``module`` and exit."""
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=program_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )


def setup_metric(launch: Callable[[], Any], launches: int = 4) -> Metric:
    """Median of ``launches`` normalised fresh launches, after one untimed.

    The untimed launch writes the byte-code caches a fresh checkout lacks.
    """
    launch()
    timer, samples = Timer(), Samples()
    for _ in range(launches):
        timer.time(samples, launch)
    return timing_metric(samples)


def scipy_import_seconds(module: str) -> float:
    """Raw seconds ``python -X importtime`` charges to scipy when importing ``module``."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=program_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    entries = []
    for line in completed.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        package = name.rstrip()
        depth = len(package) - len(package.lstrip())
        package = package.strip()
        if package == "scipy" or package.startswith("scipy."):
            try:
                entries.append((depth, int(cumulative)))
            except ValueError:
                continue
    if not entries:
        return 0.0
    outermost = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == outermost) / 1e6


def import_layers(module: str) -> Dict[str, float]:
    """The traced run's import metrics for ``module``, normalised:
    ``setup.import_s`` (median of three fresh imports) and
    ``setup.import_scipy_s`` (what ``-X importtime`` charges to scipy)."""
    timer = Timer(during=False)
    imports = Samples()
    for _ in range(3):
        timer.time(imports, import_module, module)
    scipy_s, _ = timer.time(None, scipy_import_seconds, module)
    return {"setup.import_s": timing_metric(imports).value, "setup.import_scipy_s": scipy_s * timer.scale()}
