"""Bench history files, the perfbench reduction, the recorder and bench-diff."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.errors import TelemetryError
from repro.telemetry.bench import (
    HISTORY_FORMAT,
    append_history,
    diff_entries,
    latest_entry,
    load_bench_file,
    make_entry,
    parse_run,
    record_history,
    reduce_runs,
    render_bench_diff,
    working_tree_rev,
)

#: a two-metric declaration shaped like ``BENCHMARK.json``.
DECLARATION = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 20,
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "alloc.NL_s", "unit": "s", "better": "lower"},
        {"name": "store.hits", "unit": "count", "better": "higher"},
    ],
}

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _result(metrics, correct=True, attempted=10):
    """The last line ``perfbench/run.py`` prints."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": "?"} for name, value in metrics.items()},
    }


def _run(workload, seed, trace, metrics, **kwargs):
    return parse_run(workload, seed, trace, "report\n" + json.dumps(_result(metrics, **kwargs)) + "\n")


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------- #
# the reduction
# ---------------------------------------------------------------------- #
def test_reduce_runs_pins_median_and_quartiles_and_copies_the_declaration():
    latencies = [3.0, 1.0, 4.0, 1.5, 9.0]
    runs = [
        _run("w", seed, 0, {"latency_p50_s": latency, "throughput_per_s": 10.0 * seed}, attempted=seed)
        for seed, latency in zip(range(1, 6), latencies)
    ]
    runs.append(_run("w", 1, 1, {"alloc.NL_s": 0.5, "store.hits": 7}, attempted=100))
    payload = reduce_runs(DECLARATION, runs)

    # Inclusive quartiles of five values are order statistics (the
    # exclusive method would interpolate q1 = 1.25 and q3 = 6.5).
    assert payload["seeds"] == [1, 2, 3, 4, 5]
    assert payload["run_seconds"] == 20
    workload = payload["workloads"]["w"]
    assert workload["attempted"] == 15  # the seeds' runs, not the traced one
    assert workload["end_to_end"]["latency_p50_s"] == {
        "median": 3.0, "q1": 1.5, "q3": 4.0, "n": 5, "unit": "s", "better": "lower", "bound": 0.25,
    }
    assert workload["end_to_end"]["throughput_per_s"] == {
        "median": 30.0, "q1": 20.0, "q3": 40.0, "n": 5, "unit": "1/s", "better": "higher", "bound": 0.1,
    }
    assert workload["per_layer"] == {
        "alloc.NL_s": {"value": 0.5, "unit": "s", "better": "lower"},
        "store.hits": {"value": 7, "unit": "count", "better": "higher"},
    }


@pytest.mark.parametrize(
    "stdout, fragment",
    [
        ("", "w seed 3: the run printed no result line"),
        ("Traceback (most recent call last):\n  ...\nKeyError: 'x'\n", "no result line"),
        ('{"correct": true}\n', "no result line"),
        (json.dumps(_result({"latency_p50_s": 1.0}, correct=False)), "w seed 3: the run says correct: false"),
    ],
)
def test_parse_run_names_the_workload_and_seed_of_a_bad_run(stdout, fragment):
    with pytest.raises(TelemetryError, match=fragment):
        parse_run("w", 3, 0, stdout)


# ---------------------------------------------------------------------- #
# the recorder
# ---------------------------------------------------------------------- #
def _stub_runner(declaration, calls, incorrect=None):
    """Stands in for the ``perfbench/run.py`` subprocess."""
    names = {0: [m["name"] for m in declaration["end_to_end"]],
             1: [m["name"] for m in declaration["per_layer"]]}

    def run(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        metrics = {name: float(seed) for name in names[trace]}
        return json.dumps(_result(metrics, correct=(workload, seed, trace) != incorrect))

    return run


def test_record_history_runs_every_declared_workload_over_the_seeds(tmp_path):
    declaration = json.loads(BENCHMARK_JSON.read_text())
    path = str(tmp_path / "history.json")
    calls = []
    entry = record_history(path, declaration, (1, 2, 3), _stub_runner(declaration, calls))

    seconds = declaration["run_seconds"]
    assert calls == [
        (workload["name"], seed, seconds, trace)
        for workload in declaration["workloads"]
        for seed, trace in ((1, 0), (2, 0), (3, 0), (1, 1))
    ]
    assert latest_entry(path) == entry
    workloads = entry["payload"]["workloads"]
    assert list(workloads) == [w["name"] for w in declaration["workloads"]]
    for results in workloads.values():
        assert list(results["end_to_end"]) == [m["name"] for m in declaration["end_to_end"]]
        assert list(results["per_layer"]) == [m["name"] for m in declaration["per_layer"]]
        assert all(s["median"] == 2.0 and s["n"] == 3 for s in results["end_to_end"].values())


def test_record_history_appends_nothing_when_one_run_is_incorrect(tmp_path):
    path = tmp_path / "history.json"
    record_history(str(path), DECLARATION, (1, 2), _stub_runner(DECLARATION, []))
    before = path.read_text()

    with pytest.raises(TelemetryError, match="w seed 2: the run says correct: false"):
        record_history(str(path), DECLARATION, (1, 2), _stub_runner(DECLARATION, [], incorrect=("w", 2, 0)))
    assert path.read_text() == before
    with pytest.raises(TelemetryError, match=r"w seed 1 \(traced\): the run says correct: false"):
        record_history(str(path), DECLARATION, (1, 2), _stub_runner(DECLARATION, [], incorrect=("w", 1, 1)))
    assert path.read_text() == before

    fresh = tmp_path / "fresh.json"
    with pytest.raises(TelemetryError):
        record_history(str(fresh), DECLARATION, (1, 2), _stub_runner(DECLARATION, [], incorrect=("w", 1, 0)))
    assert not fresh.exists()


# ---------------------------------------------------------------------- #
# loading and appending
# ---------------------------------------------------------------------- #
def test_append_history_creates_and_extends(tmp_path):
    path = str(tmp_path / "bench.json")
    first = append_history(path, {"workloads": {}}, recorded_at="t1", git_rev="r1")
    assert first == {"recorded_at": "t1", "git_rev": "r1", "payload": {"workloads": {}}}
    append_history(path, {"workloads": {"w": {}}}, recorded_at="t2", git_rev="r2")
    data = load_bench_file(path)
    assert data["format"] == HISTORY_FORMAT == "repro-bench-history/2"
    assert [entry["recorded_at"] for entry in data["series"]] == ["t1", "t2"]
    assert latest_entry(path)["payload"] == {"workloads": {"w": {}}}


@pytest.mark.parametrize(
    "data",
    [
        {"statements": 240, "dense_front_end": {"speedup": 3.0}},
        {"format": "repro-bench-history/1", "series": [{"payload": {"a_seconds": 1.0}}]},
    ],
    ids=["flat", "format-1"],
)
def test_append_history_refuses_other_formats(tmp_path, data):
    path = _write(tmp_path, "old.json", data)
    before = open(path).read()
    with pytest.raises(TelemetryError, match="unknown bench format"):
        append_history(path, {"workloads": {}}, recorded_at="t", git_rev="r")
    assert open(path).read() == before


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("not json", "cannot load"),
        ('["list"]', "JSON object"),
        ('{"format": "other/9", "series": []}', "unknown bench format"),
        ('{"format": "repro-bench-history/1", "series": []}', "unknown bench format 'repro-bench-history/1'"),
        ('{"statements": 240, "dense_front_end": {"speedup": 3.0}}', "unknown bench format None"),
        ('{"format": "repro-bench-history/2", "series": [{"no_payload": 1}]}', "series"),
    ],
)
def test_malformed_bench_files_raise_typed_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(TelemetryError, match=fragment):
        load_bench_file(str(path))


def test_missing_file_and_empty_series_raise(tmp_path):
    with pytest.raises(TelemetryError, match="not found"):
        load_bench_file(str(tmp_path / "absent.json"))
    path = _write(tmp_path, "empty.json", {"format": HISTORY_FORMAT, "series": []})
    with pytest.raises(TelemetryError, match="no entries"):
        latest_entry(path)


# ---------------------------------------------------------------------- #
# diffing
# ---------------------------------------------------------------------- #
def _summary(median, iqr=0.0, better="lower", bound=0.25):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2, "n": 5,
            "unit": "s", "better": better, "bound": bound}


def _entry(workload="w", **metrics):
    return {"payload": {"workloads": {workload: {"end_to_end": metrics, "per_layer": {}}}}}


def _verdicts(old, new):
    return {delta.path: delta.verdict for delta in diff_entries(old, new).deltas}


def test_diff_direction_semantics():
    """Each metric's ``better`` decides which way is a regression."""
    old = _entry(latency_s=_summary(1.0), throughput=_summary(10.0, better="higher"))
    assert _verdicts(old, _entry(latency_s=_summary(2.0), throughput=_summary(20.0, better="higher"))) == {
        "w.latency_s": "REGRESSED", "w.throughput": "improved",
    }
    assert _verdicts(old, _entry(latency_s=_summary(0.5), throughput=_summary(5.0, better="higher"))) == {
        "w.latency_s": "improved", "w.throughput": "REGRESSED",
    }


def test_diff_threshold_and_one_sided_metrics():
    """The threshold is the bound times the old median plus both IQRs:
    1.0 s with IQR 0.1 on each side may move by 0.25 + 0.1 + 0.1 = 0.45 s,
    and 10/s (bound 0.1, IQRs 1 and 1) by 1 + 1 + 1 = 3/s."""
    old = _entry(
        a_s=_summary(1.0, iqr=0.1),
        rate=_summary(10.0, iqr=1.0, better="higher", bound=0.1),
        only_old_s=_summary(1.0),
    )

    def new(a_s, rate):
        return _entry(a_s=_summary(a_s, iqr=0.1), rate=_summary(rate, iqr=1.0, better="higher"),
                      only_new_s=_summary(1.0))

    assert _verdicts(old, new(1.4, 7.5)) == {"w.a_s": "ok", "w.rate": "ok"}
    assert diff_entries(old, new(1.4, 7.5)).ok
    assert _verdicts(old, new(0.6, 12.5)) == {"w.a_s": "ok", "w.rate": "ok"}
    assert _verdicts(old, new(1.5, 6.5)) == {"w.a_s": "REGRESSED", "w.rate": "REGRESSED"}
    assert not diff_entries(old, new(1.5, 6.5)).ok
    assert _verdicts(old, new(0.5, 13.5)) == {"w.a_s": "improved", "w.rate": "improved"}
    # Without the spreads the same 1.4 s would regress.
    assert _verdicts(_entry(a_s=_summary(1.0)), _entry(a_s=_summary(1.4))) == {"w.a_s": "REGRESSED"}


def test_diff_compares_end_to_end_medians_only():
    old = _entry(a_s=_summary(1.0))
    old["payload"]["workloads"]["w"]["per_layer"] = {"alloc.NL_s": {"value": 1.0, "unit": "s", "better": "lower"}}
    new = _entry(a_s=_summary(1.0))
    new["payload"]["workloads"]["w"]["per_layer"] = {"alloc.NL_s": {"value": 9.0, "unit": "s", "better": "lower"}}
    assert _verdicts(old, new) == {"w.a_s": "ok"}


def test_diff_skips_nonpositive_baselines():
    old = _entry(zero_s=_summary(0.0), ok_s=_summary(1.0))
    new = _entry(zero_s=_summary(5.0), ok_s=_summary(1.0))
    assert [d.path for d in diff_entries(old, new).deltas] == ["w.ok_s"]


def test_diff_identical_entries_is_clean():
    entry = _entry(a_s=_summary(1.0, iqr=0.2), rate=_summary(3.0, better="higher"))
    diff = diff_entries(entry, entry)
    assert diff.ok and all(d.verdict == "ok" and d.worse_by == 0.0 for d in diff.deltas)


@pytest.mark.parametrize(
    "entry",
    [{"payload": {}}, {"payload": {"workloads": {"w": {}}}}, _entry(a_s={"median": 1.0})],
    ids=["no-workloads", "no-end-to-end", "no-quartiles"],
)
def test_diff_of_a_malformed_entry_is_a_typed_error(entry):
    with pytest.raises(TelemetryError, match="malformed bench entry"):
        diff_entries(entry, _entry(a_s=_summary(1.0)))


def test_render_bench_diff_flags_verdicts():
    old = _entry(slow_s=_summary(1.0), fast_s=_summary(1.0), same_s=_summary(1.0))
    new = _entry(slow_s=_summary(2.0), fast_s=_summary(0.5), same_s=_summary(1.0))
    text = render_bench_diff(diff_entries(old, new), "base", "cand")
    assert "3 metric(s) compared, 1 regression(s) beyond bound + both IQRs" in text
    lines = text.splitlines()
    slow = next(line for line in lines if line.startswith("w.slow_s"))
    fast = next(line for line in lines if line.startswith("w.fast_s"))
    same = next(line for line in lines if line.startswith("w.same_s"))
    assert "REGRESSED" in slow and "+100.0%" in slow and "25.0%" in slow
    assert "improved" in fast and "-50.0%" in fast
    assert same.rstrip().endswith("ok")


# ---------------------------------------------------------------------- #
# the revision an entry names
# ---------------------------------------------------------------------- #
def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_entry_marks_a_working_tree_that_differs_from_head(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "tracked.txt").write_text("one\n")
    _git(repo, "add", "tracked.txt")
    _git(repo, "commit", "-q", "-m", "first")
    rev = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=repo, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert working_tree_rev(str(repo)) == rev
    (repo / "untracked.txt").write_text("not tracked\n")
    assert working_tree_rev(str(repo)) == rev
    (repo / "tracked.txt").write_text("two\n")
    assert working_tree_rev(str(repo)) == f"{rev}-dirty"
    monkeypatch.chdir(repo)
    assert make_entry({"a_seconds": 1.0}, recorded_at="t")["git_rev"] == f"{rev}-dirty"

    outside = tmp_path / "outside"
    outside.mkdir()
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    assert working_tree_rev(str(outside)) == "unknown"
