"""Bench-trajectory history files and the ``bench-diff`` comparator.

``BENCH_*.json`` files committed at the repo root record the performance
trajectory of the project, one dated entry per recorded run::

    {
      "format": "repro-bench-history/1",
      "series": [
        {"recorded_at": "...Z", "git_rev": "...", "payload": {...}},
        ...
      ]
    }

``payload`` is exactly what ``benchmarks/bench_pipeline.py --json`` emits
(per-stage seconds, dense-kernel speedup, check overhead, telemetry
overhead).  ``benchmarks/bench_pipeline.py --append-history PATH`` appends an
entry; ``repro-alloc bench-diff OLD NEW`` compares the latest entries of two
files (either history files or bare payloads — the pre-history flat layout
loads transparently) and flags per-metric regressions beyond a threshold.

Comparison semantics per metric path:

* paths ending in ``_seconds`` or ``_ratio``, and every stage under
  ``pipeline_stage_seconds*`` — lower is better;
* paths ending in ``speedup`` — higher is better;
* everything else (seeds, sizes, stage lists) — informational, not compared.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import TelemetryError
from repro.store.base import current_git_rev, utc_now_iso

#: format tag of the history layout.
HISTORY_FORMAT = "repro-bench-history/1"


def load_bench_file(path: str) -> Dict[str, Any]:
    """Load a bench file, normalizing to the history layout.

    A bare payload (the pre-history flat layout) is wrapped as a one-entry
    series with no ``recorded_at``/``git_rev`` provenance.
    """
    if not os.path.exists(path):
        raise TelemetryError(f"bench file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise TelemetryError(f"{path}: cannot load bench file: {exc}") from exc
    if not isinstance(data, dict):
        raise TelemetryError(f"{path}: bench file must hold a JSON object")
    if "format" not in data:
        return {"format": HISTORY_FORMAT, "series": [{"payload": data}]}
    if data.get("format") != HISTORY_FORMAT:
        raise TelemetryError(f"{path}: unknown bench format {data.get('format')!r}")
    series = data.get("series")
    if not isinstance(series, list) or not all(isinstance(e, dict) and "payload" in e for e in series):
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

    An existing flat-payload file is upgraded in place: its old contents
    become entry one of the series.  Returns the entry written.
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
# comparison
# ---------------------------------------------------------------------- #
@dataclass
class MetricDelta:
    """One compared metric between two bench entries."""

    path: str
    old: float
    new: float
    #: relative change in the *bad* direction: positive = worse.
    regression: float
    higher_is_better: bool

    @property
    def ratio(self) -> float:
        return self.new / self.old if self.old else float("inf")


@dataclass
class BenchDiff:
    """Outcome of comparing two bench entries at a threshold."""

    threshold: float
    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regression > self.threshold]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _flatten_numeric(payload: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    flat: Dict[str, float] = {}
    for key in sorted(payload):
        value = payload[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_numeric(value, prefix=f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = float(value)
    return flat


def _direction(path: str) -> Optional[bool]:
    """True = higher is better, False = lower is better, None = skip."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf.endswith("speedup"):
        return True
    if leaf.endswith("_seconds") or leaf.endswith("_ratio"):
        return False
    if path.startswith("pipeline_stage_seconds"):
        return False
    return None


def diff_entries(
    old_entry: Dict[str, Any],
    new_entry: Dict[str, Any],
    threshold: float = 0.25,
) -> BenchDiff:
    """Compare two history entries, flagging per-metric regressions.

    A metric regresses when it moves in its bad direction by more than
    ``threshold`` (relative): a time metric going from 1.0s to 1.3s is a
    ``0.3`` regression; a speedup falling from 3.0x to 2.0x is ``0.5``.
    Metrics present in only one entry are not compared.
    """
    old_flat = _flatten_numeric(old_entry.get("payload", {}))
    new_flat = _flatten_numeric(new_entry.get("payload", {}))
    diff = BenchDiff(threshold=threshold)
    for path in sorted(set(old_flat) & set(new_flat)):
        higher_is_better = _direction(path)
        if higher_is_better is None:
            continue
        old, new = old_flat[path], new_flat[path]
        if old <= 0.0:
            continue
        change = (old - new) / old if higher_is_better else (new - old) / old
        diff.deltas.append(
            MetricDelta(
                path=path,
                old=old,
                new=new,
                regression=change,
                higher_is_better=higher_is_better,
            )
        )
    return diff


def render_bench_diff(
    diff: BenchDiff,
    old_label: str = "old",
    new_label: str = "new",
) -> str:
    """Human-readable table of a :class:`BenchDiff`."""
    lines = [
        f"bench-diff: {len(diff.deltas)} metric(s) compared, "
        f"{len(diff.regressions)} regression(s) beyond {diff.threshold:.0%}",
        f"{'metric':<48} {old_label:>12} {new_label:>12} {'change':>9}  verdict",
    ]
    for delta in diff.deltas:
        direction = "↑" if delta.higher_is_better else "↓"
        if delta.regression > diff.threshold:
            verdict = "REGRESSED"
        elif delta.regression < -diff.threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        signed = -delta.regression if delta.higher_is_better else delta.regression
        lines.append(
            f"{delta.path + ' ' + direction:<48} {delta.old:>12.6g} {delta.new:>12.6g} "
            f"{signed:>+8.1%}  {verdict}"
        )
    return "\n".join(lines)
