"""Corpus construction: deterministic sets of allocation problems per suite.

A *corpus* is the list of per-function allocation problems extracted from one
synthetic suite for one target — the unit the experiment harness sweeps over.
Construction is deterministic given ``(suite, target, seed)``, so every
figure and benchmark is reproducible.

Extraction is the paper's graph-extraction step: each generated function runs
through one front-end :class:`~repro.pipeline.Pipeline` per corpus
(``liveness -> interference -> extract``).  Chordal suites lower to SSA
(φ insertion + renaming), producing chordal graphs — the ST231/ARMv7
studies; the others construct SSA and destruct it again with φ-web and copy
coalescing, producing the general graphs a non-SSA JIT sees — the SPEC JVM98
study.

Two constructions live here:

* :func:`build_corpus` materializes the full :class:`Corpus` up front —
  right for the figure-scale suites (hundreds of instances);
* :class:`CorpusStream` generates problems one at a time from a seeded
  per-index RNG — right for corpus-scale stress sweeps (100k+ functions)
  where materializing the list would exhaust memory.  The streamed sweep
  path (``run_streamed_experiment`` / ``sweep --corpus``) consumes it in
  windows at constant memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.alloc.problem import AllocationProblem
from repro.pipeline.engine import Pipeline
from repro.pipeline.spec import PipelineSpec
from repro.targets import get_target
from repro.targets.machine import TargetMachine
from repro.workloads.programs import generate_function
from repro.workloads.suites import SuiteSpec, get_suite

import random

#: the front-end slice of the canonical stage chain.
_FRONT_END_STAGES = ("liveness", "interference", "extract")


def _front_end(suite: SuiteSpec, target: TargetMachine) -> Pipeline:
    """The extraction pipeline of ``suite`` on ``target`` (see module docs)."""
    return Pipeline(PipelineSpec(target=target, ssa=suite.chordal, stages=_FRONT_END_STAGES))


@dataclass
class Corpus:
    """A named collection of allocation problems plus provenance metadata."""

    suite: str
    target: str
    seed: int
    #: corpus scale factor (fraction of functions per program), recorded so
    #: run manifests capture the full provenance of a sweep.
    scale: float = 1.0
    problems: List[AllocationProblem] = field(default_factory=list)
    #: maps each problem index to the benchmark program it came from.
    program_of: Dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self) -> Iterator[AllocationProblem]:
        return iter(self.problems)

    def by_program(self) -> Dict[str, List[AllocationProblem]]:
        """Group the problems by originating benchmark program."""
        grouped: Dict[str, List[AllocationProblem]] = {}
        for index, problem in enumerate(self.problems):
            grouped.setdefault(self.program_of[index], []).append(problem)
        return grouped

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics used in reports and sanity tests."""
        if not self.problems:
            return {"instances": 0}
        sizes = [len(p.graph) for p in self.problems]
        pressures = [p.max_pressure for p in self.problems]
        return {
            "instances": len(self.problems),
            "mean_variables": sum(sizes) / len(sizes),
            "max_variables": max(sizes),
            "mean_pressure": sum(pressures) / len(pressures),
            "max_pressure": max(pressures),
        }


class CorpusStream:
    """A lazily generated corpus-scale workload (see the module docstring).

    ``count`` functions are drawn from the suite's generator profiles in
    round-robin order.  Generation is *per-index* deterministic: function
    ``i`` is built from ``random.Random(seed * 2**32 + i)``, so any
    iteration order, window size or shard split produces bit-identical
    problems — a distributed sweep over index ranges keys the same store
    cells as a local sequential pass.  Iterating never retains problems:
    memory stays constant regardless of ``count``.

    Instances are named ``corpus/<program>/fn<index>`` (a suite-distinct
    prefix, so streamed records never collide with the figure corpora in a
    shared store's aggregations).
    """

    def __init__(
        self,
        count: int,
        suite: SuiteSpec | str = "eembc",
        target: Optional[TargetMachine | str] = None,
        seed: int = 2013,
    ) -> None:
        if count < 0:
            raise ValueError(f"CorpusStream count must be >= 0, got {count}")
        if isinstance(suite, str):
            suite = get_suite(suite)
        if target is None:
            target = suite.default_target
        if isinstance(target, str):
            target = get_target(target)
        self.count = int(count)
        self.suite = suite
        self.target = target
        self.seed = int(seed)
        #: (program_name, profile) cycle the stream draws from.
        self._profiles = [
            (program_name, profile)
            for program_name, (_, profile) in suite.programs.items()
        ]
        if not self._profiles:
            raise ValueError(f"suite {suite.name!r} has no programs to stream from")
        self._front_end = _front_end(suite, target)

    def __len__(self) -> int:
        return self.count

    def problem_at(self, index: int) -> AllocationProblem:
        """Generate function ``index`` (independent of any iteration state)."""
        if not 0 <= index < self.count:
            raise IndexError(f"corpus index {index} out of range [0, {self.count})")
        program_name, profile = self._profiles[index % len(self._profiles)]
        rng = random.Random(self.seed * 2**32 + index)
        function = generate_function(f"{program_name}_fn{index}", profile, rng)
        return self._front_end.run(function, name=f"corpus/{program_name}/fn{index}").problem

    def __iter__(self) -> Iterator[AllocationProblem]:
        for index in range(self.count):
            yield self.problem_at(index)


def build_corpus(
    suite: SuiteSpec | str,
    target: Optional[TargetMachine | str] = None,
    seed: int = 2013,
    scale: float = 1.0,
) -> Corpus:
    """Generate the corpus of ``suite`` for ``target``.

    ``scale`` multiplies the number of functions per program (used by the
    quick benchmarks to run on a slice of the corpus and by stress tests to
    enlarge it); a minimum of one function per program is kept.
    """
    if isinstance(suite, str):
        suite = get_suite(suite)
    if target is None:
        target = suite.default_target
    if isinstance(target, str):
        target = get_target(target)

    rng = random.Random(seed)
    front_end = _front_end(suite, target)
    corpus = Corpus(suite=suite.name, target=target.name, seed=seed, scale=scale)
    index = 0
    for program_name, (num_functions, profile) in suite.programs.items():
        count = max(1, round(num_functions * scale))
        for function_index in range(count):
            function = generate_function(f"{program_name}_fn{function_index}", profile, rng)
            name = f"{suite.name}/{program_name}/fn{function_index}"
            corpus.problems.append(front_end.run(function, name=name).problem)
            corpus.program_of[index] = program_name
            index += 1
    return corpus
