"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graphs.io import dump_graph
from repro.ir.printer import print_function
from repro.workloads.programs import GeneratorProfile, generate_function
from tests.conftest import build_paper_figure4_graph


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "allocators:" in out
    assert "eembc" in out
    assert "st231" in out


def test_cli_allocate_graph_json(tmp_path, capsys):
    path = tmp_path / "fig4.json"
    dump_graph(build_paper_figure4_graph(), path, name="fig4")
    assert main(["allocate", "--input", str(path), "--allocator", "BFPL", "--registers", "2"]) == 0
    out = capsys.readouterr().out
    assert "spilled=" in out
    assert "cost=" in out


def test_cli_allocate_ir_file(tmp_path, capsys):
    fn = generate_function("cli_demo", GeneratorProfile(statements=15, accumulators=4), rng=3)
    path = tmp_path / "prog.ir"
    path.write_text(print_function(fn))
    assert main(["allocate", "--input", str(path), "--allocator", "NL", "--registers", "4"]) == 0
    out = capsys.readouterr().out
    assert "cli_demo" in out


def test_cli_allocate_ir_file_non_ssa_pipeline(tmp_path, capsys):
    fn = generate_function("cli_demo2", GeneratorProfile(statements=15, accumulators=4), rng=4)
    path = tmp_path / "prog.ir"
    path.write_text(print_function(fn))
    assert (
        main(
            [
                "allocate",
                "--input",
                str(path),
                "--allocator",
                "LH",
                "--registers",
                "4",
                "--pipeline",
                "non-ssa",
                "--target",
                "jikesrvm-ia32",
            ]
        )
        == 0
    )
    assert "cli_demo2" in capsys.readouterr().out


def test_cli_corpus_summary(capsys):
    assert main(["corpus", "--suite", "lao_kernels", "--seed", "3", "--scale", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "suite=lao_kernels" in out
    assert "pressure=" in out


def test_cli_figure_small(capsys):
    assert main(["figure", "ablation", "--scale", "0.15", "--seed", "3", "--max-instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "Ablation" in out


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("repro-alloc ")
    assert any(ch.isdigit() for ch in out)


def test_cli_allocate_missing_input_is_clean_error(capsys):
    assert main(["allocate", "--input", "/no/such/file.json"]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert "not found" in captured.err
    assert "Traceback" not in captured.err


def test_cli_allocate_invalid_json_is_clean_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["allocate", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "invalid input file" in captured.err
    assert "Traceback" not in captured.err


def test_cli_allocate_wrong_document_is_clean_error(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    assert main(["allocate", "--input", str(path)]) == 1
    assert "invalid input file" in capsys.readouterr().err


def test_cli_allocate_invalid_ir_is_clean_error(tmp_path, capsys):
    path = tmp_path / "broken.ir"
    path.write_text("this is not IR at all {{{")
    assert main(["allocate", "--input", str(path)]) == 1
    assert "invalid input file" in capsys.readouterr().err


def test_cli_allocate_warns_when_target_ignored_for_graph_json(tmp_path, capsys):
    path = tmp_path / "fig4.json"
    dump_graph(build_paper_figure4_graph(), path, name="fig4")
    assert main(["allocate", "--input", str(path), "--target", "armv7-a8", "--registers", "2"]) == 0
    assert "--target armv7-a8 is ignored" in capsys.readouterr().err


def test_cli_allocate_no_warning_without_explicit_target(tmp_path, capsys):
    path = tmp_path / "fig4.json"
    dump_graph(build_paper_figure4_graph(), path, name="fig4")
    assert main(["allocate", "--input", str(path), "--registers", "2"]) == 0
    assert "ignored" not in capsys.readouterr().err


def test_cli_allocate_gzipped_graph(tmp_path, capsys):
    path = tmp_path / "fig4.json.gz"
    dump_graph(build_paper_figure4_graph(), path, name="fig4")
    assert main(["allocate", "--input", str(path), "--allocator", "BFPL", "--registers", "2"]) == 0
    assert "spilled=" in capsys.readouterr().out


def test_cli_unknown_allocator_is_clean_error(tmp_path, capsys):
    path = tmp_path / "fig4.json"
    dump_graph(build_paper_figure4_graph(), path)
    assert main(["allocate", "--input", str(path), "--allocator", "nope", "--registers", "2"]) == 1
    captured = capsys.readouterr()
    assert "unknown allocator 'nope'" in captured.err
    assert "Traceback" not in captured.err


def _write_example_ir(tmp_path, rng=3, name="cli_demo"):
    fn = generate_function(name, GeneratorProfile(statements=20, accumulators=6), rng=rng)
    path = tmp_path / "prog.ir"
    path.write_text(print_function(fn))
    return path


def test_cli_allocate_unknown_stage_is_clean_exit_1(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    code = main(
        ["allocate", "--input", str(path), "--pipeline", "liveness,frobnicate,allocate"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "unknown pipeline stage 'frobnicate'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("config", ['{"registers": "8"}', '{"ssa": "false"}', '{"stages": 5}'])
@pytest.mark.parametrize("command", ["allocate", "trace"])
def test_cli_mistyped_pipeline_config_is_clean_exit_1(tmp_path, capsys, command, config):
    path = _write_example_ir(tmp_path)
    argv = ["allocate", "--input", str(path)] if command == "allocate" else ["trace", str(path)]
    assert main(argv + ["--pipeline", config]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro-alloc: error: pipeline config key")


def test_cli_allocate_emit_ir_prints_rewritten_function(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    assert (
        main(
            ["allocate", "--input", str(path), "--allocator", "NL", "--registers", "3", "--emit", "ir"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("func @cli_demo(")
    assert "load " in out and "store " in out  # spill code present


def test_cli_allocate_no_opt_never_shortens_the_ir(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    args = ["allocate", "--input", str(path), "--allocator", "NL", "--registers", "3", "--emit", "ir"]
    assert main(args) == 0
    optimized = capsys.readouterr().out
    assert main(args + ["--no-opt"]) == 0
    naive = capsys.readouterr().out
    assert naive.count("load ") >= optimized.count("load ")


def test_cli_allocate_emit_json_summary(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    assert (
        main(
            ["allocate", "--input", str(path), "--allocator", "NL", "--registers", "3", "--emit", "json"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["name"] == "cli_demo"
    assert payload[0]["allocator"] == "NL"
    assert payload[0]["verify"]["feasible"] is True
    assert "rewritten_ir" in payload[0]


def test_cli_allocate_pipeline_json_spec(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    code = main(
        [
            "allocate",
            "--input",
            str(path),
            "--pipeline",
            '{"allocator": "NL", "registers": 3, "opt": false}',
            "--emit",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["allocator"] == "NL"
    assert "loadstore_opt" not in payload[0]["stages"]


def test_cli_allocate_emit_ir_rejected_for_graph_inputs(tmp_path, capsys):
    path = tmp_path / "fig4.json"
    dump_graph(build_paper_figure4_graph(), path, name="fig4")
    assert main(["allocate", "--input", str(path), "--registers", "2", "--emit", "ir"]) == 1
    assert "--emit ir" in capsys.readouterr().err


def test_cli_allocate_store_caches_allocate_stage(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    store = str(tmp_path / "cache.sqlite")
    args = [
        "allocate", "--input", str(path), "--allocator", "NL", "--registers", "3",
        "--emit", "json", "--store", store,
    ]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    warm = json.loads(capsys.readouterr().out)
    assert cold[0]["stage_stats"]["allocate"]["cache"] == "miss"
    assert warm[0]["stage_stats"]["allocate"]["cache"] == "hit"
    assert warm[0]["rewritten_ir"] == cold[0]["rewritten_ir"]


def test_cli_allocate_front_end_only_chain_summary_is_clean(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    code = main(
        ["allocate", "--input", str(path), "--pipeline", "liveness,interference,extract"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cli_demo: |V|=" in out
    assert "no allocation" in out


def test_cli_allocate_no_opt_wins_over_explicit_stage_chain(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    chain = "liveness,interference,extract,allocate,assign,spill_code,loadstore_opt,verify"
    code = main(
        ["allocate", "--input", str(path), "--pipeline", chain, "--no-opt",
         "--registers", "3", "--emit", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "loadstore_opt" not in payload[0]["stages"]


def test_cli_allocate_unusable_store_path_is_clean_error(tmp_path, capsys):
    path = _write_example_ir(tmp_path)
    store_dir = tmp_path / "store_dir"
    store_dir.mkdir()
    code = main(
        ["allocate", "--input", str(path), "--registers", "3", "--store", str(store_dir)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "cannot use store" in captured.err
    assert "Traceback" not in captured.err


def test_cli_allocate_graph_input_ignores_unknown_target(tmp_path, capsys):
    path = tmp_path / "fig4.json"
    dump_graph(build_paper_figure4_graph(), path, name="fig4")
    assert main(["allocate", "--input", str(path), "--target", "weird", "--registers", "2"]) == 0
    captured = capsys.readouterr()
    assert "--target weird is ignored" in captured.err
    assert "spilled=" in captured.out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "figure99"])


# ---------------------------------------------------------------------- #
# the exit-code contract (the table in repro.cli's module docstring)
# ---------------------------------------------------------------------- #
class TestExitCodeContract:
    """Pin 0 = ok, 1 = domain failure, 2 = usage across the sub-commands.

    The single authoritative definition is ``repro.cli.EXIT_OK`` /
    ``EXIT_FAILURE`` / ``EXIT_USAGE``; these tests keep every command on
    it.  Usage errors exit via argparse (SystemExit with code 2), domain
    failures return 1 from ``main`` without a traceback.
    """

    def test_constants_are_the_documented_table(self):
        from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE

        assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE) == (0, 1, 2)

    # -- exit 0: success ------------------------------------------------ #
    def test_success_matrix(self, tmp_path, capsys):
        path = _write_example_ir(tmp_path)
        store = str(tmp_path / "cells.sqlite")
        for argv in (
            ["list"],
            ["allocate", "--input", str(path), "--registers", "3"],
            ["check", "--input", str(path)],
            ["oracle", "--replay"],
            [
                "sweep", "--suite", "lao_kernels", "--allocators", "BFPL",
                "--registers", "4", "--scale", "0.1", "--max-instances", "2",
                "--store", store,
            ],
        ):
            assert main(argv) == 0, f"expected exit 0 from {argv}"
            capsys.readouterr()

    # -- exit 1: domain failures ---------------------------------------- #
    @pytest.mark.parametrize(
        "argv",
        [
            # missing/invalid input files
            ["allocate", "--input", "/no/such/file.ir"],
            ["check", "--input", "/no/such/file.ir"],
            # missing sweep selection (flags parse, the *work* is unspecified)
            ["sweep", "--store", "unused.sqlite"],
            # a store path that is not a SQLite database
            ["serve", "--store", "notes.txt", "--port", "0"],
            # no server listening on a reserved port
            ["submit", "--url", "http://127.0.0.1:9", "--input", "x.ir"],
            ["jobs", "--url", "http://127.0.0.1:9"],
            # the other commands given a store that is not a SQLite database
            ["aggregate", "--store", "notes.txt"],
            ["report", "figure9", "--store", "notes.txt"],
            ["sweep", "--figure", "figure9", "--store", "notes.txt"],
            ["figure", "figure9", "--scale", "0.1", "--store", "notes.txt"],
            ["merge-batches", "--into", "merged.sqlite", "notes.txt"],
        ],
    )
    def test_domain_failures_exit_1_without_traceback(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "submit":
            (tmp_path / "x.ir").write_text("func @f(%a) {\nentry:\n  ret %a\n}\n")
        (tmp_path / "notes.txt").write_text("not a database\n")
        assert main(argv) == 1, f"expected exit 1 from {argv}"
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "Traceback" not in captured.err
        if "notes.txt" in argv:
            assert captured.err.count("\n") == 1 and "notes.txt" in captured.err

    # -- exit 2: usage errors ------------------------------------------- #
    @pytest.mark.parametrize(
        "argv",
        [
            ["no-such-command"],
            ["allocate"],  # missing required --input
            ["allocate", "--input", "x.ir", "--registers", "lots"],
            ["allocate", "--input", "x.ir", "--emit", "bogus"],
            ["serve"],  # missing required --store
            ["sweep"],  # missing required --store
            ["submit"],  # missing required --input
            ["oracle", "--count", "many"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, f"expected usage exit 2 from {argv}"
