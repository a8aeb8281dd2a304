"""Pin the layered family's outputs on generated oracle programs.

NL, BL, FPL and BFPL share one layering loop (and one constrained
``grow``); a change to that loop must leave every spill set, allocator stat
and rewritten function exactly as it was.  Each digest below is the sha256
of one JSON line per run — program, allocator, target, register count,
constraint fraction, sorted spill set, stats and rewritten IR — and was
computed before the four allocators were merged onto the shared loop.

Coverage: 12 programs unconstrained on st231 at R ∈ {0, 1, 2, 3, 5, 8}, and
8 programs with ``constrain`` 0.25 and 0.6 on riscv and st231 at R ∈ {3, 6}:
544 pipeline runs.  The front end and extract stage run once per program,
target, fraction and R, and every allocator continues from that context.
"""

import hashlib
import json

from repro.oracle.generator import generate_program
from repro.pipeline import Pipeline, PipelineSpec

ALLOCATORS = ("NL", "BL", "FPL", "BFPL")
FRONT_STAGES = ("liveness", "interference", "extract")
UNCONSTRAINED_REGISTERS = (0, 1, 2, 3, 5, 8)
CONSTRAINED_REGISTERS = (3, 6)

#: (mode, allocator) -> sha256 over that allocator's runs in that mode.
PINNED = {
    ("unconstrained", "NL"): "9ece8bea2087de1efc219c04ef9a87672b7bacea443eb714f58b25d7169db52c",
    ("unconstrained", "BL"): "680720b42285b92673819c67d6de5ddaa27e15d9677aaca94228a6c9af3dc69b",
    ("unconstrained", "FPL"): "96ae07f3ec0ac8963b8dd4eb5bb0b5d232ab137e428d38232e2a39481988f7f4",
    ("unconstrained", "BFPL"): "96cd44ee93ee14f7ee5d9e22b613ed6df152f780ee089a40e75a8ace56d84db1",
    ("constrained", "NL"): "e7ec07e744bcdbf4edc1df85e5007e03efd7dc47bc1ca6df27029062b514afbe",
    ("constrained", "BL"): "6bb962eea0d250153eda196e43e02f011bf4a0d0b51c7dadf67ba1ac2aab0114",
    ("constrained", "FPL"): "6246c1bb97f344d392bbcaa050616d0d368237678a6d0b52892b080d06ecf6f4",
    ("constrained", "BFPL"): "2ce156c87ddd4174a16143ee3cc5effd54d2b2d04ac4d3d7304b159ebfbfb24a",
}


def _groups():
    """(mode, program, target, registers, constrain) of every extract."""
    for index in range(12):
        function = generate_program(2021, index)
        for registers in UNCONSTRAINED_REGISTERS:
            yield "unconstrained", function, "st231", registers, None
    for index in range(8):
        function = generate_program(2022, index)
        for target in ("riscv", "st231"):
            for constrain in (0.25, 0.6):
                for registers in CONSTRAINED_REGISTERS:
                    yield "constrained", function, target, registers, constrain


def layering_digests():
    """The sha256 of each (mode, allocator)'s runs, plus the run count."""
    hashes = {key: hashlib.sha256() for key in PINNED}
    runs = 0
    for mode, function, target, registers, constrain in _groups():
        options = dict(target=target, registers=registers, constrain=constrain)
        base = Pipeline(PipelineSpec(stages=FRONT_STAGES, **options)).run(function)
        for allocator in ALLOCATORS:
            context = Pipeline(PipelineSpec(allocator=allocator, **options)).run_context(base)
            result = context.result
            assert (constrain is not None) == bool(result.stats.get("constrained"))
            line = json.dumps(
                [
                    function.name,
                    allocator,
                    target,
                    registers,
                    constrain,
                    sorted(str(v) for v in result.spilled),
                    result.stats,
                    context.rewritten_ir(),
                ],
                sort_keys=True,
            )
            hashes[(mode, allocator)].update(line.encode() + b"\n")
            runs += 1
    return {key: digest.hexdigest() for key, digest in hashes.items()}, runs


def test_layered_family_outputs_are_pinned():
    digests, runs = layering_digests()
    assert runs == 544
    assert digests == PINNED

