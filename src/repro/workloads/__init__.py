"""Synthetic workloads standing in for the paper's benchmark suites.

The paper extracts interference graphs from SPEC CPU 2000int, EEMBC and the
STMicroelectronics lao-kernels (compiled by Open64 for ST231 / ARMv7) and
from SPEC JVM98 (JIT-compiled by JikesRVM).  None of those sources is
redistributable here, so this package generates *synthetic programs* whose
interference graphs have the same relevant characteristics — loopy CFGs,
frequency-skewed spill costs, a wide range of register pressure — and feeds
them through the same compiler pipeline (SSA construction, liveness,
interference) the paper's prototype used.

Modules
-------
* :mod:`repro.workloads.programs` — the structured random program generator;
* :mod:`repro.workloads.suites` — per-suite generation profiles
  (``spec2000int``, ``eembc``, ``lao_kernels``, ``specjvm98``);
* :mod:`repro.workloads.corpus` — deterministic corpus construction used by
  the experiment harness and the benchmarks: each function goes through the
  front end of :class:`repro.pipeline.Pipeline` (chordal/SSA or
  general/non-SSA lowering, per suite).  For one function, run
  ``Pipeline.from_spec(stages="liveness,interference,extract", ...)`` and
  read ``context.problem``.
"""

from repro.workloads.programs import GeneratorProfile, generate_function, generate_module
from repro.workloads.suites import SUITES, SuiteSpec, get_suite
from repro.workloads.corpus import Corpus, CorpusStream, build_corpus

__all__ = [
    "GeneratorProfile",
    "generate_function",
    "generate_module",
    "SUITES",
    "SuiteSpec",
    "get_suite",
    "Corpus",
    "CorpusStream",
    "build_corpus",
]
