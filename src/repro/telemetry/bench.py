"""The bench trajectory: history files of perfbench results and ``bench-diff``.

``BENCH_pipeline.json`` at the repo root records the performance trajectory
of the project, one dated entry per recorded run::

    {
      "format": "repro-bench-history/2",
      "series": [
        {"recorded_at": "...", "git_rev": "...", "payload": {
          "seeds": [1, 2, 3, 4, 5],
          "run_seconds": 20,
          "workloads": {
            "compile_large": {
              "attempted": 410,
              "end_to_end": {"latency_p50_s": {"median": 0.30, "q1": 0.29,
                             "q3": 0.31, "n": 5, "unit": "s",
                             "better": "lower", "bound": 0.25}, ...},
              "per_layer": {"analysis.ssa_s": {"value": 0.048, "unit": "s",
                            "better": "lower"}, ...}
            }, ...}}},
        ...
      ]
    }

``benchmarks/bench_pipeline.py --append-history PATH`` runs
``perfbench/run.py`` for every workload of ``BENCHMARK.json`` once per seed
plus one traced run (``--trace 1``, first seed), and :func:`reduce_runs`
turns the results into the payload: each end-to-end metric's median and
quartiles over the seeds, with the unit, direction and bound the
declaration gives it, and each per-layer value of the traced run.
``attempted`` sums the seeds' operations.  Nothing is appended unless every
run printed ``correct: true``.

``repro-alloc bench-diff OLD NEW`` compares the latest entries of two files.
A metric is REGRESSED when its median moves the bad way by more than its
bound times the old median plus both interquartile ranges (IQRs), improved
when it moves the good way by as much, and ok otherwise.  Only end-to-end
metrics get verdicts; per-layer values are recorded for reading.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import TelemetryError
from repro.store.base import current_git_rev, utc_now_iso

#: format tag of the history layout.
HISTORY_FORMAT = "repro-bench-history/2"

#: ``run(workload, seed, seconds, trace)`` -> the run's standard output.
Runner = Callable[[str, int, float, int], str]


def load_bench_file(path: str) -> Dict[str, Any]:
    """Load a history file; any format but :data:`HISTORY_FORMAT` is an error."""
    if not os.path.exists(path):
        raise TelemetryError(f"bench file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise TelemetryError(f"{path}: cannot load bench file: {exc}") from exc
    if not isinstance(data, dict):
        raise TelemetryError(f"{path}: bench file must hold a JSON object")
    if data.get("format") != HISTORY_FORMAT:
        raise TelemetryError(
            f"{path}: unknown bench format {data.get('format')!r} (expected {HISTORY_FORMAT!r})"
        )
    series = data.get("series")
    if not isinstance(series, list) or not all(
        isinstance(e, dict) and isinstance(e.get("payload"), dict) for e in series
    ):
        raise TelemetryError(f"{path}: history 'series' must be a list of entries with payloads")
    return data


def latest_entry(path: str) -> Dict[str, Any]:
    """The newest entry of a bench file (raises if the series is empty)."""
    series = load_bench_file(path)["series"]
    if not series:
        raise TelemetryError(f"{path}: bench history has no entries")
    return series[-1]


def working_tree_rev(cwd: Optional[str] = None) -> str:
    """The revision a bench run measured, for its history entry.

    :func:`~repro.store.base.current_git_rev` of ``cwd`` (the process cwd
    by default), with ``-dirty`` appended when tracked files differ from
    HEAD, so an entry measured on an uncommitted change does not name its
    parent; ``"unknown"`` outside git.
    """
    rev = current_git_rev(cwd)
    if rev == "unknown":
        return rev
    try:
        diff = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--"], cwd=cwd, capture_output=True, timeout=5
        )
    except (OSError, subprocess.SubprocessError):
        return rev
    return f"{rev}-dirty" if diff.returncode == 1 else rev


def make_entry(
    payload: Dict[str, Any],
    recorded_at: Optional[str] = None,
    git_rev: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a dated history entry around a bench payload."""
    return {
        "recorded_at": recorded_at if recorded_at is not None else utc_now_iso(),
        "git_rev": git_rev if git_rev is not None else working_tree_rev(),
        "payload": payload,
    }


def append_history(path: str, payload: Dict[str, Any], **entry_kwargs: Any) -> Dict[str, Any]:
    """Append a dated entry to the history file at ``path`` (creating it).

    Returns the entry written.
    """
    if os.path.exists(path):
        data = load_bench_file(path)
    else:
        data = {"format": HISTORY_FORMAT, "series": []}
    entry = make_entry(payload, **entry_kwargs)
    data["series"].append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entry


# ---------------------------------------------------------------------- #
# recording
# ---------------------------------------------------------------------- #
def parse_run(workload: str, seed: int, trace: int, stdout: str) -> Dict[str, Any]:
    """The result line of one ``perfbench/run.py`` run, tagged with its run.

    The last line of the run's output must be a JSON object that says
    ``correct: true``; anything else raises, naming the workload and seed.
    """
    run = f"{workload} seed {seed}{' (traced)' if trace else ''}"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise TelemetryError(f"{run}: the run printed no result line")
    if result.get("correct") is not True:
        raise TelemetryError(
            f"{run}: the run says correct: false "
            f"({result.get('failed')} of {result.get('attempted')} operations failed)"
        )
    return {**result, "workload": workload, "seed": seed, "trace": trace}


def reduce_runs(declaration: Dict[str, Any], runs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The history payload of :func:`parse_run` results (see the module docstring).

    ``declaration`` is ``BENCHMARK.json``: its workloads, its
    ``run_seconds``, and every metric's name, unit, direction and bound.
    Each workload needs at least two untraced runs and one traced run.
    """
    workloads = {}
    for workload in declaration["workloads"]:
        name = workload["name"]
        timed = [run for run in runs if run["workload"] == name and not run["trace"]]
        traced = [run for run in runs if run["workload"] == name and run["trace"]]
        end_to_end = {}
        for metric in declaration["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in timed]
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            end_to_end[metric["name"]] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "n": len(values),
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
            }
        per_layer = {
            metric["name"]: {
                "value": traced[-1]["metrics"][metric["name"]]["value"],
                "unit": metric["unit"],
                "better": metric["better"],
            }
            for metric in declaration["per_layer"]
        }
        workloads[name] = {
            "attempted": sum(run["attempted"] for run in timed),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    return {
        "seeds": sorted({run["seed"] for run in runs if not run["trace"]}),
        "run_seconds": declaration["run_seconds"],
        "workloads": workloads,
    }


def record_history(
    path: str, declaration: Dict[str, Any], seeds: Sequence[int], run: Runner
) -> Dict[str, Any]:
    """Run every declared workload once per seed and once traced (first
    seed), then append the reduced entry to ``path`` and return it.

    A run whose result is missing or not correct raises before anything
    is written.
    """
    results = []
    for workload in declaration["workloads"]:
        name = workload["name"]
        for seed, trace in [(seed, 0) for seed in seeds] + [(seeds[0], 1)]:
            stdout = run(name, seed, declaration["run_seconds"], trace)
            results.append(parse_run(name, seed, trace, stdout))
    return append_history(path, reduce_runs(declaration, results))


# ---------------------------------------------------------------------- #
# comparison
# ---------------------------------------------------------------------- #
@dataclass
class MetricDelta:
    """One end-to-end metric of one workload, compared between two entries."""

    path: str
    old: float
    new: float
    old_iqr: float
    new_iqr: float
    bound: float
    higher_is_better: bool

    @property
    def allowed(self) -> float:
        """How far the median may move before the change is a verdict."""
        return self.bound * self.old + self.old_iqr + self.new_iqr

    @property
    def worse_by(self) -> float:
        """The median's move in the bad direction (negative = better)."""
        return self.old - self.new if self.higher_is_better else self.new - self.old

    @property
    def verdict(self) -> str:
        if self.worse_by > self.allowed:
            return "REGRESSED"
        if -self.worse_by > self.allowed:
            return "improved"
        return "ok"


@dataclass
class BenchDiff:
    """Outcome of comparing two bench entries."""

    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "REGRESSED"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _end_to_end(entry: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``workload.metric`` -> its summary, for every workload of ``entry``."""
    try:
        return {
            f"{workload}.{metric}": summary
            for workload, results in entry["payload"]["workloads"].items()
            for metric, summary in results["end_to_end"].items()
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise TelemetryError(f"malformed bench entry: no end-to-end results ({exc!r})") from None


def diff_entries(old_entry: Dict[str, Any], new_entry: Dict[str, Any]) -> BenchDiff:
    """Compare the end-to-end medians of two history entries.

    Direction and bound come from the old entry.  Metrics present in only
    one entry, and metrics whose old median is not positive (the bound is
    relative to it), are not compared.
    """
    old_results, new_results = _end_to_end(old_entry), _end_to_end(new_entry)
    diff = BenchDiff()
    for path in sorted(set(old_results) & set(new_results)):
        old, new = old_results[path], new_results[path]
        try:
            delta = MetricDelta(
                path=path,
                old=float(old["median"]),
                new=float(new["median"]),
                old_iqr=float(old["q3"]) - float(old["q1"]),
                new_iqr=float(new["q3"]) - float(new["q1"]),
                bound=float(old["bound"]),
                higher_is_better=old["better"] == "higher",
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed bench entry: metric {path} ({exc!r})") from None
        if delta.old > 0.0:
            diff.deltas.append(delta)
    return diff


def render_bench_diff(
    diff: BenchDiff,
    old_label: str = "old",
    new_label: str = "new",
) -> str:
    """Human-readable table of a :class:`BenchDiff`.

    ``change`` is the median's move relative to the old median (the arrow
    says which way is better); ``limit`` is how far it may move either way,
    the bound plus both IQRs, on the same scale.
    """
    lines = [
        f"bench-diff: {len(diff.deltas)} metric(s) compared, "
        f"{len(diff.regressions)} regression(s) beyond bound + both IQRs",
        f"{'metric':<40} {old_label + ' median':>14} {'IQR':>10} {new_label + ' median':>14} "
        f"{'IQR':>10} {'change':>8} {'limit':>7}  verdict",
    ]
    for delta in diff.deltas:
        direction = "↑" if delta.higher_is_better else "↓"
        lines.append(
            f"{delta.path + ' ' + direction:<40} {delta.old:>14.6g} {delta.old_iqr:>10.3g} "
            f"{delta.new:>14.6g} {delta.new_iqr:>10.3g} {(delta.new - delta.old) / delta.old:>+8.1%} "
            f"{delta.allowed / delta.old:>7.1%}  {delta.verdict}"
        )
    return "\n".join(lines)
