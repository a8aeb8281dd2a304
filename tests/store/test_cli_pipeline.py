"""End-to-end sweep -> aggregate -> report pipeline through the CLI."""

import re

import pytest

from repro.cli import main
from repro.store import open_store

SWEEP = [
    "sweep",
    "--suite", "lao_kernels",
    "--scale", "0.15",
    "--seed", "7",
    "--allocators", "NL,GC,Optimal",
    "--registers", "2,4",
    "--max-instances", "3",
]


def _sweep(store, capsys, *extra):
    assert main(SWEEP + ["--store", str(store)] + list(extra)) == 0
    return capsys.readouterr().out


def _stat(output, name):
    match = re.search(rf"{name}=([0-9.]+)", output)
    assert match, f"{name}= not found in sweep output:\n{output}"
    return float(match.group(1))


@pytest.mark.parametrize("filename", ["store.sqlite"])
def test_sweep_aggregate_report_end_to_end(tmp_path, capsys, filename):
    store = tmp_path / filename

    cold = _sweep(store, capsys)
    assert _stat(cold, "computed") == 18
    assert _stat(cold, "cached") == 0

    assert main(["aggregate", "--store", str(store)]) == 0
    aggregate_cold = capsys.readouterr().out
    assert "mean normalized allocation cost" in aggregate_cold
    assert "records=18" in aggregate_cold

    warm = _sweep(store, capsys)
    assert _stat(warm, "computed") == 0
    assert _stat(warm, "cached") == 18
    assert _stat(warm, "hit_rate") == 1.0

    # The aggregate of the warm store is byte-identical to the cold one.
    assert main(["aggregate", "--store", str(store)]) == 0
    assert capsys.readouterr().out == aggregate_cold


def test_report_renders_markdown_and_html_from_store(tmp_path, capsys):
    store = tmp_path / "store.sqlite"
    assert (
        main(
            [
                "sweep", "--figure", "figure13", "--scale", "0.1",
                "--max-instances", "2", "--store", str(store),
            ]
        )
        == 0
    )
    capsys.readouterr()

    assert main(["report", "figure13", "--store", str(store)]) == 0
    markdown = capsys.readouterr().out
    assert markdown.startswith("# Figure 13")
    assert "| allocator |" in markdown

    output = tmp_path / "report.html"
    assert main(["report", "figure13", "--store", str(store), "--format", "html", "--output", str(output)]) == 0
    html = output.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "Figure 13" in html and "<table>" in html

    assert main(["report", "figure13", "--store", str(store), "--format", "ascii"]) == 0
    assert "Figure 13" in capsys.readouterr().out


def test_report_on_empty_store_fails_cleanly(tmp_path, capsys):
    store = tmp_path / "empty.sqlite"
    open_store(store).close()
    assert main(["report", "figure9", "--store", str(store)]) == 1
    err = capsys.readouterr().err
    assert "no records" in err and "figure9" in err

    assert main(["aggregate", "--store", str(store)]) == 1
    assert "no matching records" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["aggregate"], ["report", "figure9"]])
def test_read_only_commands_never_create_a_store(tmp_path, capsys, command):
    store = tmp_path / "missing" / "none.sqlite"
    assert main(command + ["--store", str(store)]) == 1
    err = capsys.readouterr().err
    assert f"cannot use store {store}: no such file" in err
    assert "Traceback" not in err
    assert not store.parent.exists()


def test_aggregate_without_optimal_baseline_fails_cleanly(tmp_path, capsys):
    store = tmp_path / "store.sqlite"
    assert (
        main(
            ["sweep", "--suite", "lao_kernels", "--scale", "0.15", "--seed", "7",
             "--allocators", "NL,GC", "--registers", "2,4",
             "--max-instances", "2", "--store", str(store)]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["aggregate", "--store", str(store)]) == 1
    assert "Optimal" in capsys.readouterr().err


def test_mixed_corpus_builds_in_one_store_are_rejected(tmp_path, capsys):
    store = tmp_path / "store.sqlite"
    for seed in ("7", "8"):
        assert main(SWEEP[:5] + ["--seed", seed] + SWEEP[7:] + ["--store", str(store)]) == 0
    capsys.readouterr()
    assert main(["aggregate", "--store", str(store)]) == 1
    err = capsys.readouterr().err
    assert "different corpus builds" in err
    assert main(["report", "figure13", "--store", str(store)]) == 1
    assert "different corpus builds" in capsys.readouterr().err


def test_sweep_requires_a_resolvable_spec(tmp_path, capsys):
    assert main(["sweep", "--store", str(tmp_path / "s.sqlite"), "--suite", "eembc"]) == 1
    assert "sweep needs" in capsys.readouterr().err


def test_sweep_rejects_invalid_config(tmp_path, capsys):
    assert (
        main(
            SWEEP[:1]
            + ["--suite", "eembc", "--allocators", "NL", "--registers", "0",
               "--store", str(tmp_path / "s.sqlite")]
        )
        == 1
    )
    assert "positive" in capsys.readouterr().err


def test_figure_command_reuses_store(tmp_path, capsys):
    store = tmp_path / "fig.sqlite"
    args = ["figure", "figure13", "--scale", "0.1", "--max-instances", "2", "--store", str(store)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "Figure 13" in cold

    assert main(args) == 0
    warm = capsys.readouterr().out
    assert warm == cold

    from repro.store import open_store

    with open_store(store) as store_obj:
        manifests = store_obj.manifests()
    assert manifests[0].cells_computed > 0
    assert manifests[1].cells_computed == 0
    assert manifests[1].hit_rate == 1.0


def test_figure_store_ignored_for_companion_studies(tmp_path, capsys):
    args = [
        "figure", "ablation", "--scale", "0.15", "--seed", "3",
        "--max-instances", "2", "--store", str(tmp_path / "x.sqlite"),
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "Ablation" in captured.out
    assert "--store is ignored" in captured.err
