"""The one-pass kernels of the large compile equal the code they replaced.

* Reload removal: ``remove_redundant_reloads`` against a test-local copy of
  the earlier rescanning implementation, on generated functions lowered to
  SSA and to non-SSA, with spill sets from NL and from random subsets.
* ``rewritten_ir()`` and spill sets of the first compile_large-profile
  functions of one seed, and printed ``construct_ssa`` output of generated
  programs with loops and unreachable blocks, pinned by sha256 digests taken
  from the earlier implementation.
* Frank's per-order setup: built once per (graph, PEO), rebuilt for a PEO
  with other contents, and the typed errors keep their text.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Set, Tuple

import pytest

import repro.graphs.dense as dense_module
from repro.alloc.base import get_allocator
from repro.alloc.load_store_opt import remove_redundant_reloads
from repro.alloc.spill_code import insert_spill_code
from repro.analysis.ssa_construction import construct_ssa
from repro.errors import GraphError
from repro.graphs.chordal import maximum_cardinality_search, perfect_elimination_order
from repro.graphs.dense import DenseGraph
from repro.graphs.generators import random_interval_graph
from repro.graphs.stable_set import maximum_weighted_stable_set
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode, make_binary, make_branch, make_cond_branch
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.ir.values import Constant, VirtualRegister
from repro.oracle.generator import generate_program
from repro.pipeline import Pipeline
from repro.workloads.programs import GeneratorProfile, generate_function

from tests.conftest import count_calls


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# reference: the rescanning reload removal the one-pass version replaced
# ---------------------------------------------------------------------- #
def _reference_use_index(function: Function) -> Tuple[Dict[VirtualRegister, int], Set[VirtualRegister]]:
    def_counts: Dict[VirtualRegister, int] = {}
    for param in function.parameters:
        def_counts[param] = def_counts.get(param, 0) + 1
    unsafe: Set[VirtualRegister] = set()
    for block in function:
        for phi in block.phis:
            def_counts[phi.target] = def_counts.get(phi.target, 0) + 1
            unsafe.update(phi.used_registers())
        for instruction in block.instructions:
            for reg in instruction.defined_registers():
                def_counts[reg] = def_counts.get(reg, 0) + 1
    return def_counts, unsafe


def _reference_block_uses(instructions: List[Instruction]) -> Dict[VirtualRegister, List[int]]:
    uses: Dict[VirtualRegister, List[int]] = {}
    for position, instruction in enumerate(instructions):
        for reg in instruction.used_registers():
            uses.setdefault(reg, []).append(position)
    return uses


def _reference_removable(
    destination, holder, index, uses_here, use_blocks, label, def_counts, phi_used, holder_stable
):
    if def_counts.get(destination, 0) != 1:
        return False
    if destination in phi_used:
        return False
    if use_blocks.get(destination, set()) - {label}:
        return False
    positions = uses_here.get(destination, [])
    if any(position <= index for position in positions):
        return False
    if not positions:
        return True
    return holder_stable(holder, index, max(positions))


def reference_remove_redundant_reloads(function: Function) -> Tuple[Function, int]:
    """The earlier implementation, kept verbatim as the equivalence oracle."""
    result = function.clone()
    def_counts, phi_used = _reference_use_index(result)
    use_blocks: Dict[VirtualRegister, Set[str]] = {}
    for block in result:
        for instruction in block.instructions:
            for reg in instruction.used_registers():
                use_blocks.setdefault(reg, set()).add(block.label)

    removed = 0
    for block in result:
        instructions = block.instructions
        uses_here = _reference_block_uses(instructions)
        available: Dict[Constant, VirtualRegister] = {}
        replacements: Dict[VirtualRegister, VirtualRegister] = {}
        new_instructions: List[Instruction] = []

        def invalidate_holders(registers: Iterable[VirtualRegister]) -> None:
            redefined = set(registers)
            stale = [slot for slot, holder in available.items() if holder in redefined]
            for slot in stale:
                del available[slot]

        def holder_stable(holder: VirtualRegister, start: int, stop: int) -> bool:
            for position in range(start + 1, stop + 1):
                if holder in instructions[position].defined_registers():
                    return False
            return True

        for index, instruction in enumerate(instructions):
            for old, new in replacements.items():
                instruction.replace_use(old, new)
            opcode = instruction.opcode
            if opcode is Opcode.LOAD and isinstance(instruction.uses[0], Constant):
                slot = instruction.uses[0]
                destination = instruction.defs[0]
                holder = available.get(slot)
                if holder is not None and _reference_removable(
                    destination, holder, index, uses_here, use_blocks, block.label,
                    def_counts, phi_used, holder_stable,
                ):
                    replacements[destination] = holder
                    removed += 1
                    continue
                invalidate_holders([destination])
                available[slot] = destination
            elif opcode is Opcode.STORE:
                address = instruction.uses[0]
                if isinstance(address, Constant):
                    value = instruction.uses[1]
                    if isinstance(value, VirtualRegister):
                        available[address] = value
                    else:
                        available.pop(address, None)
                else:
                    available.clear()
            else:
                invalidate_holders(instruction.defined_registers())
            new_instructions.append(instruction)
        block.instructions = new_instructions
    return result, removed


FRONT_END = "liveness,interference,extract"


def _front_end(function: Function, ssa: bool):
    pipeline = Pipeline.from_spec("NL", target="st231", ssa=ssa, stages=FRONT_END)
    return pipeline.run(function)


def _spill_sets(context, rng: random.Random) -> List[List[str]]:
    """NL's spill sets at R = 2, 4, 8, then a random register subset.

    A non-chordal (non-SSA) problem takes the layered heuristic's sets
    instead, NL's counterpart on general graphs.
    """
    problem = context.problem
    layered = get_allocator("NL" if problem.is_chordal else "LH")
    sets = [sorted(layered.allocate(problem.with_registers(r)).spilled) for r in (2, 4, 8)]
    names = sorted(reg.name for reg in context.lowered.virtual_registers())
    sets.append(rng.sample(names, rng.randint(1, len(names))))
    return sets


def _programs() -> Iterable[Tuple[str, Function]]:
    for index in range(170):
        yield f"small/{index}", generate_program(5, index, "small")
    for index in range(30):
        yield f"medium/{index}", generate_program(6, index, "medium")


def test_reload_removal_equals_the_rescanning_reference():
    rng = random.Random(19)
    checked = removed_total = 0
    for tag, program in _programs():
        for ssa in (True, False):
            context = _front_end(program, ssa)
            for spilled in _spill_sets(context, rng):
                naive, _stats = insert_spill_code(context.lowered, spilled)
                before = print_function(naive)
                actual, removed = remove_redundant_reloads(naive)
                expected, expected_removed = reference_remove_redundant_reloads(naive)
                assert print_function(naive) == before, (tag, "input modified")
                assert removed == expected_removed, (tag, ssa, spilled)
                assert print_function(actual) == print_function(expected), (tag, ssa, spilled)
                checked += 1
                removed_total += removed
    assert checked == 200 * 2 * 4
    assert removed_total > 1000  # the equivalence is exercised, not vacuous


# ---------------------------------------------------------------------- #
# sha256 pins taken from the earlier implementation
# ---------------------------------------------------------------------- #
#: the compile_large workload's generator profile (perfbench/compile_large.py).
COMPILE_LARGE_PROFILE = GeneratorProfile(
    statements=1000, accumulators=80, loop_depth=4, protect_loop_counters=True, loop_iterations=(2, 4)
)

#: seed 19, functions 0-2: (sha256 of rewritten_ir(), sha256 of the sorted spill set).
COMPILE_LARGE_PINS = [
    (
        "08f1dadff0a84fecbf8d52a97509296426d64003d3ab07008dac1c9d39aadce1",
        "dceecaae802bdf5aca4e492ed59dca0a747644898e79d33a36fe3a27f7c1f396",
    ),
    (
        "7401069f7490fdda6ac46670c333de6035ee20f97aaf4e2f10a1252cc583cb09",
        "ac8d7de97c9af9a7814085bf63cbc67beb7421c94bd0e698d601f65babb75f02",
    ),
    (
        "f16ef2b1ea14fe5bf94e1ffe8a3e4211b480dbe13f0630122e2025806b1bafaf",
        "ee5b42faca65a45b36eb57396b02dc73a1592ee458ae968843143de1823549d1",
    ),
]


def compile_large_text(seed: int, index: int) -> str:
    rng = random.Random(f"compile_large/{seed}/{index}")
    return print_function(generate_function(f"large{index}", COMPILE_LARGE_PROFILE, rng=rng))


def compile_large_digests(seed: int = 19, count: int = 3) -> List[Tuple[str, str]]:
    pipeline = Pipeline.from_spec("NL", target="st231", registers=8)
    digests = []
    for index in range(count):
        context = pipeline.run(parse_function(compile_large_text(seed, index)))
        assert context.report.feasible
        digests.append((sha(context.rewritten_ir()), sha("\n".join(sorted(context.result.spilled)))))
    return digests


def test_compile_large_outputs_match_the_pins():
    assert compile_large_digests() == COMPILE_LARGE_PINS


#: generated programs with loops (and, below, unreachable blocks).
SSA_PROFILE = GeneratorProfile(statements=80, accumulators=6, loop_depth=3, loop_probability=0.4)


def with_unreachable_blocks(function: Function, rng: random.Random) -> Function:
    """``function`` plus two blocks no path reaches.

    ``dead1`` branches to ``dead0`` or into the function; ``dead0`` redefines
    a register and jumps to a loop header or join, so the blocks add CFG
    predecessors (and φ operands) that construction must handle.
    """
    result = function.clone()
    labels = result.block_labels()[1:]
    registers = [reg for reg in result.virtual_registers() if reg not in result.parameters]
    target, other = rng.choice(labels), rng.choice(labels)
    redefined, operand = rng.choice(registers), rng.choice(registers)
    dead0 = result.add_block("dead0")
    dead0.append(make_binary(Opcode.ADD, redefined, operand, Constant(7)))
    dead0.append(make_branch(target))
    dead1 = result.add_block("dead1")
    dead1.append(make_binary(Opcode.MUL, operand, redefined, operand))
    dead1.append(make_cond_branch(operand, "dead0", other))
    return result


def ssa_programs() -> List[Function]:
    programs = []
    for index in range(8):
        rng = random.Random(f"ssa-pin/{index}")
        function = generate_function(f"ssa{index}", SSA_PROFILE, rng=rng)
        programs.append(with_unreachable_blocks(function, rng) if index % 2 else function)
    return programs


def ssa_digests(prune: bool) -> List[str]:
    return [sha(print_function(construct_ssa(function, prune=prune))) for function in ssa_programs()]


#: sha256 of print_function(construct_ssa(program, prune=...)) per program.
SSA_PINS = {
    True: [
        "9e8a38d9130a93d28a31b500631a3da38eb1724cc93cfa14b152a320974a6ce8",
        "6392de4c17c8d875f0baf835f01bf57bd8da250d74be4bdd549cf2dbdf210748",
        "4ad729583c164340f630ecb7bb90f719a616d5ff90e02fe7b304faedbe4c02bc",
        "01ace9539bba13aefe526aa1bd0a5297ae8d80c6a793c455b8a6e923fab19218",
        "8efe0cdd36e67aa631bbd62b980c1accac0474fb3d9a34b4d7d31c7f1d27a741",
        "c6e6e144f62686277d65d32061ac1372c2cd6261a02bb6ae7c8a846ecc0d3f47",
        "d312fdcb351c678fa40aa3bb1f3337ec5b0c6defe68a2e75bcda47a79150e9cb",
        "68917537d6fa8de9d02ae3982f098dc915f79c0c743a2f92749b0fa178bbffa7",
    ],
    False: [
        "942ebb95d5fbe560c9bda0aeb3028efaa918ea30e35647a5322062d396ce2854",
        "a04915ded7c8b61925a0800cd649fc319f32c4eb83d0037c1f1980e1d5bbef95",
        "5d88f9ae9a2f9bae1ae48e69cec3249986cb7e08bcf60fd2de32d4d084174507",
        "0f7676b8c88cdc3c0d6d39efd093c7493d658d69b3058e657d834b10cf338327",
        "28251a17a6d03e9a639dac9f6407eacee8c832209267e76120df83f9869d9806",
        "f3629ae7f9c9997845899660b85b4b522cfd5049280dbe3022ae675619ed5598",
        "d81ab383c3d595c792c397432618c7e918ddc2eb5bc1277b3a921b2f2fd8e452",
        "b0b7e5954971db2774942b476b50b556ff873904bacea7cc68404eb523ec631d",
    ],
}


@pytest.mark.parametrize("prune", [True, False])
def test_construct_ssa_output_matches_the_pins(prune):
    programs = ssa_programs()
    assert any(label.startswith("dead") for label in programs[1].block_labels())
    assert sum(len(construct_ssa(p, prune=prune).phi_nodes()) for p in programs) > 0
    assert ssa_digests(prune) == SSA_PINS[prune]


# ---------------------------------------------------------------------- #
# Frank's per-order setup
# ---------------------------------------------------------------------- #
def test_a_six_register_sweep_builds_the_order_setup_once(monkeypatch):
    profile = GeneratorProfile(statements=120, accumulators=12, loop_depth=3)
    function = generate_function("sweep", profile, rng=random.Random(6))
    problem = _front_end(function, ssa=True).problem
    assert isinstance(problem.graph, DenseGraph)
    builds = count_calls(monkeypatch, dense_module, "build_frank_order")
    frank = count_calls(monkeypatch, dense_module, "dense_frank")
    layers = 0
    for name in ("NL", "BL", "FPL", "BFPL"):
        for registers in (1, 2, 3, 4, 6, 8):
            result = get_allocator(name).allocate(problem.with_registers(registers))
            layers += result.stats["layers"]
    assert builds["n"] == 1
    assert frank["n"] >= layers > 0  # every layer still runs Frank's walk


def _chordal_pair(seed: int) -> Tuple[DenseGraph, object]:
    plain, _intervals = random_interval_graph(60, rng=seed, max_length=15, span=80)
    return DenseGraph.from_graph(plain), plain


def test_a_peo_with_other_contents_gets_its_own_setup(monkeypatch):
    graph, plain = _chordal_pair(3)
    builds = count_calls(monkeypatch, dense_module, "build_frank_order")
    first = perfect_elimination_order(graph)
    vertices = graph.vertices()
    second = list(reversed(maximum_cardinality_search(graph, start=vertices[-1])))
    assert first != second and sorted(first) == sorted(second)
    candidates = set(vertices[::2]) | set(vertices[-10:])

    # A copy of an earlier PEO is again other contents than the cached one.
    for peo, expected_builds in ((first, 1), (first, 1), (second, 2), (list(first), 3)):
        dense_result = maximum_weighted_stable_set(graph, peo=peo, candidates=candidates)
        assert builds["n"] == expected_builds
        assert dense_result == maximum_weighted_stable_set(plain, peo=peo, candidates=candidates)

    # The same list object, mutated in place, is a PEO with other contents.
    peo = list(first)
    maximum_weighted_stable_set(graph, peo=peo, candidates=candidates)
    assert builds["n"] == 3
    peo[:] = second
    assert maximum_weighted_stable_set(graph, peo=peo, candidates=candidates) == (
        maximum_weighted_stable_set(plain, peo=second, candidates=candidates)
    )
    assert builds["n"] == 4


def test_missing_weight_and_peo_vertex_errors_keep_their_text():
    graph, plain = _chordal_pair(4)
    peo = perfect_elimination_order(graph)
    vertices = graph.vertices()
    lacking = {v: graph.weight(v) for v in vertices[1:]}
    for g in (graph, plain):
        with pytest.raises(GraphError) as weights_error:
            maximum_weighted_stable_set(g, weights=lacking, peo=peo)
        assert str(weights_error.value) == f"weights missing for vertices: {[vertices[0]]!r}"
        with pytest.raises(GraphError) as peo_error:
            maximum_weighted_stable_set(g, peo=peo[1:], candidates=vertices)
        assert str(peo_error.value) == f"peo missing candidate vertices: {[peo[0]]!r}"
