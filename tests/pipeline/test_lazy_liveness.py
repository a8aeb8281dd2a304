"""The liveness stage's sets are expanded only when something reads them."""

from __future__ import annotations

import importlib
import random

from repro.analysis.dense import dense_liveness
from repro.analysis.liveness import liveness
from repro.analysis.vr_index import VRIndex
from repro.ir.values import VirtualRegister
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
    assert expanded["n"] == 0
    assert reference["n"] == 0


def test_expanded_sets_equal_the_reference_and_keep_in_place_updates():
    function = _function()
    info = dense_liveness(function).to_info()
    reference = liveness(function)
    label = function.entry_label
    extra = VirtualRegister("not-live")
    info.live_out[label].add(extra)
    assert extra in info.live_out[label]
    reference.live_out[label].add(extra)
    assert info.live_in == reference.live_in
    assert info.live_out == reference.live_out
    assert info.defs == reference.defs
    assert info.upward_exposed == reference.upward_exposed
    assert list(info.live_in) == function.block_labels()

