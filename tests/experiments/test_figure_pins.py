"""Value pins of the paper figures' rendered text.

Each figure of ``FIGURE_SPECS`` is drawn the way ``figures/cells.csv`` is
tabulated: from one sweep of its suite over the union of its figures' grids,
shared by every figure of that suite.  A sha256 of the text pins it, so a
figure changes only with a deliberate change to its drawing, its corpus or
an allocator.  ``test_committed_figures.py`` checks the full-scale text.

The swept corpora are miniatures of the suites: each suite's first three
programs, two functions of ten statements each, with the suite's name,
lowering and target.  On the real suites' functions the exact Optimal
baseline needs scipy; without it, its branch-and-bound fallback exceeds its
node budget.  On the miniatures both solvers find the same optima, so the
pins hold with and without scipy.
"""

import dataclasses
import hashlib

import pytest

from repro.cli import main
from repro.experiments.figures import ALL_FIGURES, FIGURE_SPECS
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.store import open_store
from repro.workloads.corpus import build_corpus
from repro.workloads.suites import get_suite

SEED = 5

#: sha256 of each figure's rendered text, drawn from the miniature sweeps.
FIGURE_PINS = {
    "figure8": "fdf1243f5033a06cfb64885b180a2cdb7e7d0fea8ab2ef9970c632311b94d8f5",
    "figure9": "84ea5ee2997370574b9a3d13c43b39dd5a3383d15974a58e6c0b6a3038c74ebc",
    "figure10": "3308818cfbfd9008b53b1c18fd7c9ba274ae6ba60f073e6a4ba407d360da41a2",
    "figure11": "bbf6c74e6e712c62bc26e57efc33f5e1bd559f827370963950775f5dbd5876fa",
    "figure12": "57ebbb115165cc26be7748830e287e97de00cbc7aff3e7353940cc1cf73d0f41",
    "figure13": "daa11f01f35b11ba980e04d9f5a118c475602e92527756654f386247ef209995",
    "figure14": "d95f38a88d60b7d867d4760aa3e86ddea4c5a4aa4daeb147c5dc2763424d3915",
    "figure15": "af165b1756539077f086296844971345183138bba7bd25d78f51f258d45a5cc7",
}
#: ``report figure9 --format markdown`` over a store holding the eembc sweep.
REPORT_PIN = "a5554f67961e5fca6a43c29c1e285af743e6f5b46630ed4676dc635157698878"


def _miniature(suite_name):
    suite = get_suite(suite_name)
    programs = {
        name: (
            2,
            dataclasses.replace(
                profile, statements=10, accumulators=max(2, profile.accumulators // 4), loop_depth=1
            ),
        )
        for name, (_, profile) in list(suite.programs.items())[:3]
    }
    return build_corpus(dataclasses.replace(suite, programs=programs), seed=SEED)


def _sweep(suite, store=None):
    """One sweep of ``suite`` over the union of its figures' grids."""
    specs = [spec for spec in FIGURE_SPECS.values() if spec.suite == suite]
    register_counts = sorted({count for spec in specs for count in spec.register_counts})
    config = ExperimentConfig(list(specs[0].allocators), register_counts, verify=False)
    return run_experiment(_miniature(suite), config, store=store)


@pytest.fixture(scope="module")
def suite_records():
    return {suite: _sweep(suite) for suite in sorted({spec.suite for spec in FIGURE_SPECS.values()})}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(FIGURE_SPECS))
def test_figure_text_is_pinned(name, suite_records):
    result = ALL_FIGURES[name](records=suite_records[FIGURE_SPECS[name].suite])
    assert _digest(result.rendered) == FIGURE_PINS[name], result.rendered


def test_markdown_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "cells.sqlite"
    with open_store(path) as store:
        _sweep("eembc", store)
    assert main(["report", "figure9", "--store", str(path), "--format", "markdown"]) == 0
    text = capsys.readouterr().out
    assert _digest(text) == REPORT_PIN, text
