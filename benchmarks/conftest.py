"""Shared fixtures for the benchmark harness.

Every figure of the paper is regenerated from the records produced by one
sweep per benchmark suite; the sweeps are session-scoped fixtures so the
expensive allocator runs are paid once and reused by all dependent figures
(e.g. Figure 8 and Figure 11 share the SPEC CPU2000int records, exactly as
in the paper).

Environment variables:

``REPRO_BENCH_SCALE``
    Multiplier on the per-suite corpus scale (default 1.0).  Use ``2.0`` or
    more for a full-size run, ``0.5`` for a quick smoke run.
``REPRO_BENCH_MAX_INSTANCES``
    Hard cap on the number of functions per suite (default: suite-specific).
``REPRO_BENCH_SEED``
    Corpus seed (default 2013).

The rendered figures are written to ``benchmarks/results/*.txt`` and printed,
so they land in ``bench_output.txt`` alongside the timing tables.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import List, Optional

import pytest

from repro.experiments.figures import FIGURE_SPECS, FigureSpec, _run_suite
from repro.experiments.runner import InstanceRecord

RESULTS_DIR = Path(__file__).parent / "results"

#: default (scale, max_instances) per suite — sized so the whole benchmark
#: suite completes in a few minutes on a laptop while still covering every
#: benchmark program of every suite.
SUITE_DEFAULTS = {
    "spec2000int": (0.5, None),
    "eembc": (0.75, None),
    "lao_kernels": (1.0, None),
    "specjvm98": (1.0, None),
}


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "2013"))


def bench_scale(suite: str) -> float:
    base, _ = SUITE_DEFAULTS[suite]
    return base * float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_max_instances(suite: str) -> Optional[int]:
    override = os.environ.get("REPRO_BENCH_MAX_INSTANCES")
    if override:
        return int(override)
    default = SUITE_DEFAULTS[suite][1]
    return default


def run_suite_records(spec: FigureSpec) -> List[InstanceRecord]:
    """Run one figure spec's sweep with the benchmark-level configuration."""
    return _run_suite(
        spec,
        seed=bench_seed(),
        scale=bench_scale(spec.suite),
        max_instances=bench_max_instances(spec.suite),
        verify=False,
    )


def publish(figure_result, capsys=None) -> None:
    """Write a figure's rendered table to benchmarks/results and stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{figure_result.figure}.txt"
    path.write_text(figure_result.rendered + "\n", encoding="utf-8")
    print("\n" + figure_result.rendered)


# ---------------------------------------------------------------------- #
# session-scoped record caches (one sweep per paper study)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def spec_st231_records() -> List[InstanceRecord]:
    """SPEC CPU2000int stand-in on ST231 (Figures 8 and 11)."""
    return run_suite_records(FIGURE_SPECS["figure8"])


@pytest.fixture(scope="session")
def eembc_st231_records() -> List[InstanceRecord]:
    """EEMBC stand-in on ST231 (Figures 9 and 12)."""
    return run_suite_records(FIGURE_SPECS["figure9"])


@pytest.fixture(scope="session")
def lao_armv7_records() -> List[InstanceRecord]:
    """lao-kernels stand-in on ARMv7 (Figures 10 and 13)."""
    return run_suite_records(FIGURE_SPECS["figure10"])


@pytest.fixture(scope="session")
def jvm_records() -> List[InstanceRecord]:
    """SPEC JVM98 stand-in on the JikesRVM register file (Figures 14 and 15)."""
    figure14, figure15 = FIGURE_SPECS["figure14"], FIGURE_SPECS["figure15"]
    register_counts = tuple(sorted(set(figure14.register_counts) | set(figure15.register_counts)))
    return run_suite_records(dataclasses.replace(figure14, register_counts=register_counts))
