"""The pipeline carries liveness as dense masks; only the checker expands them."""

from __future__ import annotations

import importlib
import random

from repro.analysis.dense import DenseLivenessInfo
from repro.analysis.vr_index import VRIndex
from repro.pipeline import Pipeline
from repro.workloads.programs import GeneratorProfile, generate_function

from tests.conftest import count_calls

#: the module, not the function ``repro.analysis`` re-exports under its name.
liveness_module = importlib.import_module("repro.analysis.liveness")


def _function():
    profile = GeneratorProfile(statements=240, accumulators=20, loop_depth=4)
    return generate_function("lazy240", profile, rng=random.Random(240))


def _count_set_of(monkeypatch):
    calls = {"n": 0}
    original = VRIndex.set_of

    def counting(self, mask):
        calls["n"] += 1
        return original(self, mask)

    monkeypatch.setattr(VRIndex, "set_of", counting)
    return calls


def test_default_compile_never_expands_a_liveness_set(monkeypatch):
    expanded = _count_set_of(monkeypatch)
    reference = count_calls(monkeypatch, liveness_module, "liveness")
    context = Pipeline.from_spec("NL", target="st231", registers=8).run(_function())
    assert context.report.feasible
    assert context.problem.max_pressure > 8  # real spilling work
    assert isinstance(context.liveness, DenseLivenessInfo)
    assert expanded["n"] == 0
    assert reference["n"] == 0


def test_checker_expands_the_masks_into_the_reference_sets(monkeypatch):
    # check="each" runs the liveness checker after every pass that must
    # preserve liveness; it raises on LIV001/LIV002, so a clean run means the
    # expanded masks equal the set-based recomputation block for block.
    expanded = _count_set_of(monkeypatch)
    context = Pipeline.from_spec("NL", target="st231", registers=8, check="each").run(_function())
    assert context.report.feasible
    assert isinstance(context.liveness, DenseLivenessInfo)
    assert expanded["n"] > 0
