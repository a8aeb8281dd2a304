"""Regenerate the committed full-scale figures and their per-cell table.

Run from the repository root::

    PYTHONPATH=src python figures/regenerate.py

It writes, next to this script:

* ``figure8.txt`` … ``figure15.txt``: the stdout of ``repro-alloc reproduce
  --figure figureN --store S`` at the defaults (seed 2013, scale 1.0), all
  eight sweeping into one store ``S``;
* ``inclusion.txt`` and ``ablation.txt``: the stdout of ``repro-alloc figure
  inclusion`` and ``repro-alloc figure ablation``;
* ``cells.csv``: one row per swept cell (instance, allocator, register
  count, spill cost), read back from the warm store suite by suite in
  ``FIGURE_SPECS`` order.  Drawing a figure from its suite's rows gives its
  text byte for byte (Figure 15 lists benchmarks in order of first
  appearance).

The store is a temporary file outside the repository.  Optimal solves the
full suites, which needs scipy.  The script exits non-zero at the first
command that fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.experiments.figures import FIGURE_SPECS
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.store import open_store
from repro.workloads.corpus import build_corpus

HERE = Path(__file__).resolve().parent
#: ``reproduce``'s default corpus seed (its default scale, 1.0, is the full corpus).
SEED = 2013


def write_stdout(name: str, *argv: str) -> None:
    """Run ``repro-alloc ARGV`` in process and write its stdout to ``NAME.txt``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(list(argv))
    if status != 0:
        sys.exit(f"regenerate.py: `repro-alloc {' '.join(argv)}` exited {status}")
    (HERE / f"{name}.txt").write_text(stdout.getvalue(), encoding="utf-8")


def write_cells(store_path: Path) -> None:
    """Write every swept cell to ``cells.csv``: one warm sweep per suite over
    the union of its figures' grids, so no allocator runs."""
    grids = {}
    for spec in FIGURE_SPECS.values():
        allocators, counts = grids.setdefault((spec.suite, spec.target), ({}, set()))
        allocators.update(dict.fromkeys(spec.allocators))
        counts.update(spec.register_counts)
    with open_store(store_path) as store, open(HERE / "cells.csv", "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("instance", "allocator", "registers", "spill_cost"))
        for (suite, target), (allocators, counts) in grids.items():
            corpus = build_corpus(suite, target=target, seed=SEED)
            config = ExperimentConfig(list(allocators), sorted(counts))
            for record in run_experiment(corpus, config, store=store):
                writer.writerow((record.instance, record.allocator, record.num_registers, repr(record.spill_cost)))
            computed = store.manifests()[-1].cells_computed
            if computed:
                sys.exit(f"regenerate.py: the {suite} figures left {computed} cells unswept")


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        store = str(Path(scratch) / "figures.sqlite")
        for name in FIGURE_SPECS:
            write_stdout(name, "reproduce", "--figure", name, "--store", store)
        write_stdout("inclusion", "figure", "inclusion")
        write_stdout("ablation", "figure", "ablation")
        write_cells(Path(store))


if __name__ == "__main__":
    regenerate()
