"""The committed full-scale figures in ``figures/`` and the orderings they show.

``figures/regenerate.py`` writes each figure's text and ``cells.csv``, one
row per swept cell; CI regenerates them and fails on any byte difference.
These tests read only the table (no allocator runs, no scipy): it must hold
each figure's whole grid, redraw each committed text byte for byte, and show
the orderings the paper's figures rest on, checked on the unrounded costs
and series rather than on the text.
"""

import csv
from pathlib import Path

import pytest

from repro.experiments.figures import ALL_FIGURES, FIGURE_SPECS
from repro.experiments.runner import InstanceRecord

FIGURES = Path(__file__).resolve().parents[2] / "figures"
#: slack for comparing means of ratios; per-cell costs compare exactly.
EPS = 1e-9


@pytest.fixture(scope="module")
def records():
    with open(FIGURES / "cells.csv", newline="", encoding="utf-8") as table:
        return [
            InstanceRecord(
                instance=row["instance"],
                program=row["instance"].split("/")[1],
                allocator=row["allocator"],
                num_registers=int(row["registers"]),
                spill_cost=float(row["spill_cost"]),
                num_spilled=0,
                num_variables=0,
                max_pressure=0,
                runtime_seconds=0.0,
            )
            for row in csv.DictReader(table)
        ]


@pytest.fixture(scope="module")
def cells(records):
    """``{(instance, register count): {allocator: spill cost}}``."""
    table = {}
    for record in records:
        table.setdefault((record.instance, record.num_registers), {})[record.allocator] = record.spill_cost
    return table


def draw(name, records):
    return ALL_FIGURES[name](records=FIGURE_SPECS[name].select(records))


@pytest.mark.parametrize("name", sorted(FIGURE_SPECS))
def test_table_holds_one_row_per_cell_of_each_figure(name, records):
    spec = FIGURE_SPECS[name]
    rows = [(r.instance, r.allocator, r.num_registers) for r in spec.select(records)]
    instances = {instance for instance, _, _ in rows}
    grid = {(i, a, r) for i in instances for a in spec.allocators for r in spec.register_counts}
    assert instances
    assert len(rows) == len(grid) and set(rows) == grid


@pytest.mark.parametrize("name", sorted(FIGURE_SPECS))
def test_table_redraws_the_committed_text(name, records):
    assert draw(name, records).rendered + "\n" == (FIGURES / f"{name}.txt").read_text(encoding="utf-8")


def test_optimal_is_cheapest_on_every_cell(cells):
    for cell, costs in cells.items():
        assert costs["Optimal"] <= min(costs.values()), cell


def test_fixed_point_never_hurts_on_a_chordal_cell(cells):
    chordal = {cell: costs for cell, costs in cells.items() if "FPL" in costs}
    assert chordal
    for cell, costs in chordal.items():
        assert costs["FPL"] <= costs["NL"] and costs["BFPL"] <= costs["BL"], cell


@pytest.mark.parametrize("name", ["figure8", "figure9", "figure10"])
def test_bfpl_never_trails_nl_at_any_register_count(name, records):
    series = draw(name, records).series
    for count in FIGURE_SPECS[name].register_counts:
        assert series["BFPL"][count] <= series["NL"][count] + EPS, count


def test_figure8_layered_family_stays_near_optimal(records):
    series = draw("figure8", records).series
    for allocator in ("BL", "FPL", "BFPL"):
        values = list(series[allocator].values())
        assert sum(values) / len(values) <= 1.25, allocator


@pytest.mark.parametrize("name", ["figure11", "figure12", "figure13"])
def test_distributions_are_ordered(name, records):
    for allocator, by_count in draw(name, records).distributions.items():
        for count, box in by_count.items():
            assert box.count, (allocator, count)
            assert box.minimum >= 1.0, (allocator, count)
            assert box.p25 <= box.p75 and box.median <= box.maximum, (allocator, count)


def test_figure11_bfpl_worst_case_stays_near_gc(records):
    distributions = draw("figure11", records).distributions
    worst = {a: max(box.maximum for box in distributions[a].values()) for a in ("GC", "BFPL")}
    assert worst["BFPL"] <= worst["GC"] + 0.5, worst


def test_layered_heuristic_never_trails_linear_scan_on_a_cell(cells):
    general = {cell: costs for cell, costs in cells.items() if "LH" in costs}
    assert general
    for cell, costs in general.items():
        assert costs["LH"] <= costs["LS"], cell


def test_figure14_layered_heuristic_mean_beats_the_baselines(records):
    # LH > GC on some single cells (13 of 248 at the committed seed), but
    # never on the mean at any register count.
    series = draw("figure14", records).series
    for count in FIGURE_SPECS["figure14"].register_counts:
        assert series["LH"][count] <= series["BLS"][count] + EPS, count
        assert series["LH"][count] <= series["GC"][count] + EPS, count


def test_figure15_layered_heuristic_beats_linear_scan_on_every_benchmark(records):
    series = draw("figure15", records).series
    assert series
    for program, by_allocator in series.items():
        assert by_allocator["LH"] <= by_allocator["LS"] + EPS, program
