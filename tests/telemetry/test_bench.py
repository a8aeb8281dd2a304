"""Bench history files and the bench-diff comparator."""

import json
import subprocess

import pytest

from repro.errors import TelemetryError
from repro.telemetry.bench import (
    HISTORY_FORMAT,
    append_history,
    diff_entries,
    latest_entry,
    load_bench_file,
    make_entry,
    render_bench_diff,
    working_tree_rev,
)

FLAT_PAYLOAD = {
    "statements": 240,
    "dense_front_end": {"speedup": 3.0, "dense_seconds": 0.1, "reference_seconds": 0.3},
    "pipeline_stage_seconds_check_off": {"allocate": 0.2, "liveness": 0.1},
}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------- #
# loading and appending
# ---------------------------------------------------------------------- #
def test_flat_payload_loads_as_one_entry_series(tmp_path):
    path = _write(tmp_path, "flat.json", FLAT_PAYLOAD)
    data = load_bench_file(path)
    assert data["format"] == HISTORY_FORMAT
    assert len(data["series"]) == 1
    assert data["series"][0]["payload"] == FLAT_PAYLOAD
    assert latest_entry(path)["payload"] == FLAT_PAYLOAD


def test_append_history_creates_and_extends(tmp_path):
    path = str(tmp_path / "bench.json")
    first = append_history(path, {"a_seconds": 1.0}, recorded_at="t1", git_rev="r1")
    assert first == {"recorded_at": "t1", "git_rev": "r1", "payload": {"a_seconds": 1.0}}
    append_history(path, {"a_seconds": 2.0}, recorded_at="t2", git_rev="r2")
    data = load_bench_file(path)
    assert [entry["recorded_at"] for entry in data["series"]] == ["t1", "t2"]
    assert latest_entry(path)["payload"] == {"a_seconds": 2.0}


def test_append_history_upgrades_flat_file_in_place(tmp_path):
    path = _write(tmp_path, "flat.json", FLAT_PAYLOAD)
    append_history(path, {"a_seconds": 2.0}, recorded_at="t2", git_rev="r2")
    data = json.loads(open(path).read())
    assert data["format"] == HISTORY_FORMAT
    assert data["series"][0]["payload"] == FLAT_PAYLOAD  # old numbers preserved
    assert data["series"][1]["payload"] == {"a_seconds": 2.0}


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("not json", "cannot load"),
        ('["list"]', "JSON object"),
        ('{"format": "other/9", "series": []}', "unknown bench format"),
        ('{"format": "repro-bench-history/1", "series": [{"no_payload": 1}]}', "series"),
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
def _entry(payload):
    return {"payload": payload}


def test_diff_direction_semantics():
    old = _entry(
        {
            "dense_front_end": {"speedup": 3.0},
            "check_overhead": {"each_seconds": 0.1, "each_overhead_ratio": 2.0},
            "pipeline_stage_seconds_check_off": {"allocate": 0.2},
            "statements": 240,  # no direction -> informational, skipped
        }
    )
    new = _entry(
        {
            "dense_front_end": {"speedup": 1.5},  # halved: 0.5 regression
            "check_overhead": {"each_seconds": 0.05, "each_overhead_ratio": 2.0},
            "pipeline_stage_seconds_check_off": {"allocate": 0.3},  # +50%
            "statements": 999,
        }
    )
    diff = diff_entries(old, new, threshold=0.25)
    by_path = {delta.path: delta for delta in diff.deltas}
    assert "statements" not in by_path
    assert by_path["dense_front_end.speedup"].regression == pytest.approx(0.5)
    assert by_path["dense_front_end.speedup"].higher_is_better is True
    # Halving a time is an improvement: negative regression.
    assert by_path["check_overhead.each_seconds"].regression == pytest.approx(-0.5)
    assert by_path["check_overhead.each_overhead_ratio"].regression == 0.0
    assert by_path["pipeline_stage_seconds_check_off.allocate"].regression == pytest.approx(0.5)
    assert sorted(d.path for d in diff.regressions) == [
        "dense_front_end.speedup",
        "pipeline_stage_seconds_check_off.allocate",
    ]
    assert not diff.ok


def test_diff_threshold_and_one_sided_metrics():
    old = _entry({"a_seconds": 1.0, "only_old_seconds": 1.0})
    new = _entry({"a_seconds": 1.2, "only_new_seconds": 1.0})
    assert diff_entries(old, new, threshold=0.25).ok  # 20% < 25%
    assert not diff_entries(old, new, threshold=0.1).ok
    # Metrics present in only one entry are never compared.
    assert [d.path for d in diff_entries(old, new).deltas] == ["a_seconds"]


def test_diff_skips_nonpositive_baselines():
    old = _entry({"zero_seconds": 0.0, "ok_seconds": 1.0})
    new = _entry({"zero_seconds": 5.0, "ok_seconds": 1.0})
    assert [d.path for d in diff_entries(old, new).deltas] == ["ok_seconds"]


def test_diff_identical_entries_is_clean():
    entry = _entry(FLAT_PAYLOAD)
    diff = diff_entries(entry, entry, threshold=0.0)
    assert diff.ok and all(d.regression == 0.0 for d in diff.deltas)


def test_render_bench_diff_flags_verdicts():
    old = _entry({"slow_seconds": 1.0, "fast_seconds": 1.0, "same_seconds": 1.0})
    new = _entry({"slow_seconds": 2.0, "fast_seconds": 0.5, "same_seconds": 1.0})
    text = render_bench_diff(diff_entries(old, new, threshold=0.25), "base", "cand")
    assert "3 metric(s) compared, 1 regression(s)" in text
    slow = next(line for line in text.splitlines() if line.startswith("slow_seconds"))
    fast = next(line for line in text.splitlines() if line.startswith("fast_seconds"))
    same = next(line for line in text.splitlines() if line.startswith("same_seconds"))
    assert "REGRESSED" in slow and "+100.0%" in slow
    assert "improved" in fast
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
