"""Per-figure reproduction entry points.

:data:`FIGURE_SPECS` is the one definition of each paper figure: its corpus,
the allocators and register counts the paper compares, its title and how it
is drawn.  :func:`draw_figure` sweeps a spec's corpus (or takes records
already swept), normalizes against the optimal allocator and returns a
:class:`FigureResult` carrying both the structured series and a rendered
ASCII table; ``figure8``…``figure15`` each draw one spec.  The
``repro-alloc reproduce`` and ``figure`` commands print the rendered text;
``figures/`` holds it at full scale, written by ``figures/regenerate.py``.

The ``scale`` parameter shrinks the synthetic corpora (fraction of functions
per program) so quick runs stay quick; ``scale=1.0`` is the full corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.alloc import get_allocator
from repro.experiments.report import render_distribution_table, render_figure, render_table
from repro.experiments.runner import ExperimentConfig, InstanceRecord, run_experiment
from repro.experiments.stats import (
    DistributionSummary,
    distribution_by,
    mean_ratio_by,
    normalize_records,
    per_program_means,
)
from repro.workloads.corpus import build_corpus

#: allocators compared in the chordal study (Figures 8-13).
CHORDAL_ALLOCATORS = ("GC", "NL", "FPL", "BL", "BFPL", "Optimal")
#: allocators compared in the non-chordal JVM study (Figures 14-15).
GENERAL_ALLOCATORS = ("LS", "BLS", "GC", "LH", "Optimal")
#: register counts of the chordal study.
CHORDAL_REGISTER_COUNTS = (1, 2, 4, 8, 16, 32)
#: register counts of the JVM study.
GENERAL_REGISTER_COUNTS = (2, 4, 6, 8, 10, 12, 14, 16)


@dataclass(frozen=True)
class FigureSpec:
    """One figure: its corpus, (allocator × register) grid, title and drawing.

    ``sweep``, ``reproduce``, ``report`` and ``aggregate`` plan and select
    store cells with these specs, and :func:`draw_figure` draws them.
    ``kind`` is ``"mean"`` (mean normalized cost per allocator and register
    count), ``"distribution"`` (its spread over instances, heuristics only)
    or ``"per_program"`` (mean per benchmark program at the spec's one
    register count, which fills ``{register_count}`` in the title).
    """

    suite: str
    target: Optional[str]
    allocators: Sequence[str]
    register_counts: Sequence[int]
    title: str = ""
    kind: str = "mean"

    def select(self, records: Iterable[InstanceRecord]) -> List[InstanceRecord]:
        """The records of this spec's suite, allocators and register counts."""
        allocators = set(self.allocators)
        registers = set(self.register_counts)
        prefix = f"{self.suite}/"
        return [
            record
            for record in records
            if record.instance.startswith(prefix)
            and record.allocator in allocators
            and record.num_registers in registers
        ]


#: the paper's figures, by identifier.
FIGURE_SPECS: Dict[str, FigureSpec] = {
    "figure8": FigureSpec(
        "spec2000int", "st231", CHORDAL_ALLOCATORS, CHORDAL_REGISTER_COUNTS,
        title="Figure 8 - Allocation cost, SPEC CPU 2000int stand-in on ST231 (normalized to Optimal)",
    ),
    "figure9": FigureSpec(
        "eembc", "st231", CHORDAL_ALLOCATORS, CHORDAL_REGISTER_COUNTS,
        title="Figure 9 - Allocation cost, EEMBC stand-in on ST231 (normalized to Optimal)",
    ),
    "figure10": FigureSpec(
        "lao_kernels", "armv7-a8", CHORDAL_ALLOCATORS, CHORDAL_REGISTER_COUNTS,
        title="Figure 10 - Allocation cost, lao-kernels stand-in on ARMv7 (normalized to Optimal)",
    ),
    "figure11": FigureSpec(
        "spec2000int", "st231", CHORDAL_ALLOCATORS, CHORDAL_REGISTER_COUNTS,
        title="Figure 11 - Distribution of normalized costs, SPEC CPU 2000int stand-in on ST231",
        kind="distribution",
    ),
    "figure12": FigureSpec(
        "eembc", "st231", CHORDAL_ALLOCATORS, CHORDAL_REGISTER_COUNTS,
        title="Figure 12 - Distribution of normalized costs, EEMBC stand-in on ST231",
        kind="distribution",
    ),
    "figure13": FigureSpec(
        "lao_kernels", "armv7-a8", CHORDAL_ALLOCATORS, CHORDAL_REGISTER_COUNTS,
        title="Figure 13 - Distribution of normalized costs, lao-kernels stand-in on ARMv7",
        kind="distribution",
    ),
    "figure14": FigureSpec(
        "specjvm98", "jikesrvm-ia32", GENERAL_ALLOCATORS, GENERAL_REGISTER_COUNTS,
        title="Figure 14 - Layered heuristic vs baselines, SPEC JVM98 stand-in (normalized to Optimal)",
    ),
    "figure15": FigureSpec(
        "specjvm98", "jikesrvm-ia32", GENERAL_ALLOCATORS, (6,),
        title="Figure 15 - Per-benchmark normalized cost at R={register_count}, SPEC JVM98 stand-in",
        kind="per_program",
    ),
}


@dataclass
class FigureResult:
    """Structured result of one reproduced figure."""

    figure: str
    title: str
    #: mean normalized cost per allocator per register count (bar-chart figures)
    #: or per program (Figure 15).
    series: Dict[str, Dict] = field(default_factory=dict)
    #: distribution summaries (box-plot figures 11-13), if applicable.
    distributions: Dict[str, Dict[int, DistributionSummary]] = field(default_factory=dict)
    #: raw per-instance records, for downstream analysis.
    records: List[InstanceRecord] = field(default_factory=list)
    #: number of instances whose optimum was 0 but the heuristic spilled.
    unbounded_records: int = 0
    rendered: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.rendered


# ---------------------------------------------------------------------- #
# shared machinery
# ---------------------------------------------------------------------- #
def draw_figure(
    figure: str, spec: FigureSpec, seed: int = 2013, scale: float = 1.0, max_instances: Optional[int] = None,
    records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Draw ``spec`` as ``figure``: sweep its corpus unless ``records`` are
    given, normalize against Optimal and render the table.

    Given records are drawn whole (each is normalized; the table shows the
    spec's grid), so one sweep — a store, or one swept table per suite —
    draws every figure of its suite.
    """
    if records is None:
        corpus = build_corpus(spec.suite, target=spec.target, seed=seed, scale=scale)
        config = ExperimentConfig(list(spec.allocators), list(spec.register_counts))
        records = run_experiment(corpus, config, max_instances=max_instances)
    normalized, unbounded = normalize_records(records)
    result = FigureResult(figure=figure, title=spec.title, records=records, unbounded_records=unbounded)
    if spec.kind == "mean":
        result.series = mean_ratio_by(normalized, spec.allocators, spec.register_counts)
        table = render_table(
            result.series, spec.register_counts, row_header="allocator", column_format=lambda c: f"R={c}"
        )
    elif spec.kind == "distribution":
        heuristics = [a for a in spec.allocators if a.lower() != "optimal"]
        result.distributions = distribution_by(normalized, heuristics, spec.register_counts)
        table = render_distribution_table(result.distributions, spec.register_counts)
    elif spec.kind == "per_program":
        (register_count,) = spec.register_counts
        result.title = spec.title.format(register_count=register_count)
        result.series = per_program_means(normalized, list(spec.allocators), register_count)
        table = render_table(result.series, list(spec.allocators), row_header="benchmark")
    else:
        raise ValueError(f"unknown figure kind {spec.kind!r} for {figure}")
    result.rendered = render_figure(result.title, table)
    return result


def _paper_figure(
    figure: str, register_counts: Sequence[int], seed: int, scale: float, max_instances: Optional[int],
    records: Optional[List[InstanceRecord]],
) -> FigureResult:
    """Draw the paper figure ``figure`` over ``register_counts``."""
    spec = replace(FIGURE_SPECS[figure], register_counts=tuple(register_counts))
    return draw_figure(figure, spec, seed, scale, max_instances, records)


# ---------------------------------------------------------------------- #
# the paper's figures: chordal study (8-13), JikesRVM-style study (14-15)
# ---------------------------------------------------------------------- #
def figure8(
    seed: int = 2013, scale: float = 1.0, register_counts: Sequence[int] = FIGURE_SPECS["figure8"].register_counts,
    max_instances: Optional[int] = None, records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Figure 8: mean normalized allocation cost, SPEC CPU2000int on ST231."""
    return _paper_figure("figure8", register_counts, seed, scale, max_instances, records)


def figure9(
    seed: int = 2013, scale: float = 1.0, register_counts: Sequence[int] = FIGURE_SPECS["figure9"].register_counts,
    max_instances: Optional[int] = None, records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Figure 9: mean normalized allocation cost, EEMBC on ST231."""
    return _paper_figure("figure9", register_counts, seed, scale, max_instances, records)


def figure10(
    seed: int = 2013, scale: float = 1.0, register_counts: Sequence[int] = FIGURE_SPECS["figure10"].register_counts,
    max_instances: Optional[int] = None, records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Figure 10: mean normalized allocation cost, lao-kernels on ARMv7."""
    return _paper_figure("figure10", register_counts, seed, scale, max_instances, records)


def figure11(
    seed: int = 2013, scale: float = 1.0, register_counts: Sequence[int] = FIGURE_SPECS["figure11"].register_counts,
    max_instances: Optional[int] = None, records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Figure 11: distribution of normalized costs over SPEC CPU2000int programs."""
    return _paper_figure("figure11", register_counts, seed, scale, max_instances, records)


def figure12(
    seed: int = 2013, scale: float = 1.0, register_counts: Sequence[int] = FIGURE_SPECS["figure12"].register_counts,
    max_instances: Optional[int] = None, records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Figure 12: distribution of normalized costs over EEMBC programs."""
    return _paper_figure("figure12", register_counts, seed, scale, max_instances, records)


def figure13(
    seed: int = 2013, scale: float = 1.0, register_counts: Sequence[int] = FIGURE_SPECS["figure13"].register_counts,
    max_instances: Optional[int] = None, records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Figure 13: distribution of normalized costs over lao-kernels programs."""
    return _paper_figure("figure13", register_counts, seed, scale, max_instances, records)


def figure14(
    seed: int = 2013, scale: float = 1.0, register_counts: Sequence[int] = FIGURE_SPECS["figure14"].register_counts,
    max_instances: Optional[int] = None, records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Figure 14: mean normalized cost on the SPEC JVM98 stand-in, per register count."""
    return _paper_figure("figure14", register_counts, seed, scale, max_instances, records)


def figure15(
    seed: int = 2013, scale: float = 1.0, register_count: int = FIGURE_SPECS["figure15"].register_counts[0],
    max_instances: Optional[int] = None, records: Optional[List[InstanceRecord]] = None,
) -> FigureResult:
    """Figure 15: per-benchmark normalized cost at ``register_count`` registers (JVM study)."""
    return _paper_figure("figure15", (register_count,), seed, scale, max_instances, records)


# ---------------------------------------------------------------------- #
# companion studies
# ---------------------------------------------------------------------- #
def inclusion_study(
    suite: str = "lao_kernels",
    seed: int = 2013,
    scale: float = 1.0,
    register_counts: Optional[Sequence[int]] = None,
    max_instances: Optional[int] = None,
) -> FigureResult:
    """Section 2.3: how often optimal spill sets are monotone in R.

    For every instance and every consecutive pair of register counts (by
    default every ``R`` from 1 up to the instance's MaxLive), check whether
    the optimal spill set at the larger count is included in the optimal
    spill set at the smaller count.  The paper reports 99.83% inclusion on
    SPEC JVM98.

    Exact optima are not unique, so ties are broken deterministically by
    perturbing each vertex weight with a tiny per-vertex epsilon (the same
    across register counts); without this the measured rate reflects solver
    tie-breaking noise rather than the structural property.
    """
    from repro.alloc.problem import AllocationProblem

    corpus = build_corpus(suite, seed=seed, scale=scale)
    optimal = get_allocator("Optimal")
    total = 0
    held = 0
    per_instance: Dict[str, Dict[str, float]] = {}
    problems = corpus.problems[:max_instances] if max_instances else corpus.problems
    for problem in problems:
        # Deterministic tie-breaking: add rank * epsilon to each weight.
        perturbed_graph = problem.graph.copy()
        epsilon = 1e-6 * max(1.0, min((w for w in perturbed_graph.weights().values() if w > 0), default=1.0))
        for rank, vertex in enumerate(sorted(perturbed_graph.vertices(), key=str)):
            perturbed_graph.set_weight(vertex, perturbed_graph.weight(vertex) + rank * epsilon)
        perturbed = AllocationProblem(graph=perturbed_graph, num_registers=1, name=problem.name)

        if register_counts is None:
            counts = list(range(1, perturbed.max_pressure + 1))
        else:
            counts = sorted(register_counts)
        spills_by_count = {}
        for register_count in counts:
            result = optimal.allocate(perturbed.with_registers(register_count))
            spills_by_count[register_count] = set(result.spilled)
        inclusion_flags = []
        for smaller, larger in zip(counts, counts[1:]):
            total += 1
            ok = spills_by_count[larger] <= spills_by_count[smaller]
            held += ok
            inclusion_flags.append(ok)
        per_instance[problem.name] = {
            "pairs": len(inclusion_flags),
            "held": sum(inclusion_flags),
        }
    rate = held / total if total else 1.0
    series = {"inclusion": {"rate": rate, "pairs": total, "held": held}}
    rendered = render_figure(
        "Section 2.3 - Optimal spill-set inclusion study",
        f"inclusion rate: {rate:.4f} ({held}/{total} consecutive register-count pairs)\n"
        f"suite: {suite}, instances: {len(problems)}",
    )
    return FigureResult(
        figure="inclusion_study",
        title="Spill-set inclusion when varying the register count",
        series={"summary": series["inclusion"], "per_instance": per_instance},
        rendered=rendered,
    )


def ablation_study(
    suite: str = "eembc",
    seed: int = 2013,
    scale: float = 1.0,
    register_counts: Sequence[int] = (2, 4, 8, 16),
    max_instances: Optional[int] = None,
) -> FigureResult:
    """Ablation of the two improvements (bias, fixed point) over plain NL."""
    spec = FigureSpec(
        suite, None, ("NL", "BL", "FPL", "BFPL", "Optimal"), tuple(register_counts),
        title=f"Ablation - contribution of biasing and fixed-point iteration ({suite} stand-in)",
    )
    return draw_figure("ablation", spec, seed, scale, max_instances)


ALL_FIGURES = {
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "figure15": figure15,
    "inclusion": inclusion_study,
    "ablation": ablation_study,
}
