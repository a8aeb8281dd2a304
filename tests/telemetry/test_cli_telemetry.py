"""CLI surface: trace / stats / bench-diff subcommands and --trace flags."""

import json

import pytest

from repro.cli import main
from repro.ir.printer import print_function
from repro.telemetry.bench import append_history
from repro.telemetry.export import read_jsonl
from repro.workloads.programs import GeneratorProfile, generate_function


def _ir_file(tmp_path, name="trace_demo", statements=20):
    fn = generate_function(name, GeneratorProfile(statements=statements, accumulators=4), rng=9)
    path = tmp_path / f"{name}.ir"
    path.write_text(print_function(fn))
    return str(path)


# ---------------------------------------------------------------------- #
# trace
# ---------------------------------------------------------------------- #
def test_cli_trace_text_summary(tmp_path, capsys):
    assert main(["trace", _ir_file(tmp_path), "--allocator", "BFPL", "--registers", "4"]) == 0
    out = capsys.readouterr().out
    assert "pipeline:run" in out
    assert "pass:allocate" in out
    assert "alloc:layered_phase" in out
    assert "store.hit = 0" in out and "store.miss = 0" in out


def test_cli_trace_chrome_export(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert (
        main(["trace", _ir_file(tmp_path), "--format", "chrome", "-o", str(trace_path)]) == 0
    )
    assert "wrote" in capsys.readouterr().out
    document = json.loads(trace_path.read_text())
    names = {event.get("name") for event in document["traceEvents"]}
    assert "pipeline:run" in names and "pass:allocate" in names
    assert "store.hit" in names and "store.miss" in names
    phases = {event["ph"] for event in document["traceEvents"]}
    assert {"M", "X", "C"} <= phases


def test_cli_trace_jsonl_then_stats(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    assert main(["trace", _ir_file(tmp_path), "--format", "jsonl", "-o", str(trace_path)]) == 0
    capsys.readouterr()
    snapshot = read_jsonl(str(trace_path))
    assert "pipeline:run" in snapshot.span_names()

    assert main(["stats", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "pipeline:run" in out and "counters:" in out


def test_cli_trace_with_store_counts_hits(tmp_path, capsys):
    ir_path = _ir_file(tmp_path)
    store_path = str(tmp_path / "cache.sqlite")
    cold_path, warm_path = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    assert main(["trace", ir_path, "--store", store_path, "--format", "jsonl", "-o", str(cold_path)]) == 0
    assert main(["trace", ir_path, "--store", store_path, "--format", "jsonl", "-o", str(warm_path)]) == 0
    assert read_jsonl(str(cold_path)).counters["store.miss"] == 1
    assert read_jsonl(str(warm_path)).counters["store.hit"] == 1
    assert read_jsonl(str(warm_path)).counters["store.sqlite.hit"] == 1


def test_cli_trace_missing_input_is_clean_error(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "absent.ir")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_stats_rejects_non_trace_file(tmp_path, capsys):
    path = tmp_path / "not_a_trace.jsonl"
    path.write_text('{"type": "meta", "format": "other/1"}\n')
    assert main(["stats", str(path)]) == 1
    assert "unknown trace format" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# --trace flags
# ---------------------------------------------------------------------- #
def test_cli_allocate_trace_flag_writes_jsonl(tmp_path, capsys):
    trace_path = tmp_path / "alloc.jsonl"
    assert (
        main(
            [
                "allocate",
                "--input",
                _ir_file(tmp_path),
                "--allocator",
                "NL",
                "--registers",
                "4",
                "--trace",
                str(trace_path),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "trace: wrote" in captured.err
    assert "trace_demo" in captured.out  # normal allocate output unchanged
    assert "pipeline:run" in read_jsonl(str(trace_path)).span_names()


def test_cli_sweep_trace_flag_and_cache_split(tmp_path, capsys):
    store_path = str(tmp_path / "sweep.sqlite")
    trace_path = tmp_path / "sweep.json"
    argv = [
        "sweep",
        "--store",
        store_path,
        "--suite",
        "eembc",
        "--allocators",
        "NL",
        "--registers",
        "4",
        "--scale",
        "0.1",
        "--trace",
        str(trace_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # The classic manifest line survives (CI greps hit_rate=) ...
    assert "hit_rate=0.000" in out
    # ... and the new per-allocator split table follows it.
    assert "allocator" in out and "miss" in out
    document = json.loads(trace_path.read_text())
    names = {event.get("name") for event in document["traceEvents"]}
    assert "sweep:cell" in names and "store.miss" in names

    # Warm rerun: the split flips to hits.
    assert main(argv[:-2]) == 0
    out = capsys.readouterr().out
    assert "hit_rate=1.000" in out
    assert "1.000" in out.splitlines()[-1]


def test_cli_oracle_trace_flag(tmp_path, capsys):
    trace_path = tmp_path / "oracle.jsonl"
    assert (
        main(
            [
                "oracle",
                "--seed",
                "2",
                "--count",
                "2",
                "--allocators",
                "NL",
                "--targets",
                "st231",
                "--regressions",
                str(tmp_path / "regressions"),
                "--trace",
                str(trace_path),
            ]
        )
        == 0
    )
    assert "trace: wrote" in capsys.readouterr().err
    snapshot = read_jsonl(str(trace_path))
    assert len(snapshot.find("oracle:program")) == 2
    assert snapshot.counters["oracle.checks"] == 2


# ---------------------------------------------------------------------- #
# bench-diff
# ---------------------------------------------------------------------- #
def _history(path, **medians):
    """A one-entry history: workload ``w``, each metric with an IQR of 0.1."""
    end_to_end = {
        name: {"median": median, "q1": median - 0.05, "q3": median + 0.05, "n": 5, "unit": "s",
               "better": "higher" if name.startswith("rate") else "lower", "bound": 0.25}
        for name, median in medians.items()
    }
    append_history(str(path), {"workloads": {"w": {"end_to_end": end_to_end, "per_layer": {}}}},
                   recorded_at="t", git_rev="r")
    return str(path)


def test_cli_bench_diff_ok_and_regressed(tmp_path, capsys):
    # Lower-is-better 1.0 s and higher-is-better 4.0/s may move by their
    # bound (0.25 and 1.0) plus both IQRs (0.2).
    old = _history(tmp_path / "old.json", run_s=1.0, rate=4.0)
    within = _history(tmp_path / "within.json", run_s=1.4, rate=2.9)
    assert main(["bench-diff", old, within]) == 0
    assert "0 regression(s)" in capsys.readouterr().out

    slower = _history(tmp_path / "slower.json", run_s=1.5, rate=4.0)
    assert main(["bench-diff", old, slower]) == 1
    out = capsys.readouterr().out
    assert "1 regression(s)" in out
    assert "REGRESSED" in next(line for line in out.splitlines() if line.startswith("w.run_s"))

    lower_rate = _history(tmp_path / "lower_rate.json", run_s=1.0, rate=2.7)
    assert main(["bench-diff", old, lower_rate]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in next(line for line in out.splitlines() if line.startswith("w.rate"))

    # Improvements never fail the diff.
    faster = _history(tmp_path / "faster.json", run_s=0.5, rate=5.3)
    assert main(["bench-diff", old, faster]) == 0
    assert capsys.readouterr().out.count("improved") == 2


def test_cli_bench_diff_rejects_other_formats(tmp_path, capsys):
    good = _history(tmp_path / "good.json", run_s=1.0)
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"run_seconds": 1.0}))
    format_1 = tmp_path / "format1.json"
    format_1.write_text(json.dumps(
        {"format": "repro-bench-history/1", "series": [{"payload": {"run_seconds": 1.0}}]}
    ))
    for bad, named in ((flat, "None"), (format_1, "'repro-bench-history/1'")):
        for argv in (["bench-diff", str(bad), good], ["bench-diff", good, str(bad)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("repro-alloc: error: ")
            assert f"unknown bench format {named}" in lines[0]


def test_cli_bench_diff_has_no_threshold_flag(tmp_path):
    good = _history(tmp_path / "good.json", run_s=1.0)
    with pytest.raises(SystemExit) as raised:
        main(["bench-diff", good, good, "--threshold", "10"])
    assert raised.value.code == 2


def test_cli_bench_diff_missing_file_is_clean_error(tmp_path, capsys):
    assert main(["bench-diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "not found" in capsys.readouterr().err
