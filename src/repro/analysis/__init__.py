"""Program analyses over the mini IR.

These analyses reproduce, in miniature, the parts of a production compiler
backend the paper's allocators depend on:

* :mod:`repro.analysis.cfg` — control-flow graph views (predecessors,
  successors, reverse post-order);
* :mod:`repro.analysis.dominators` — dominator sets, immediate dominators and
  the dominance tree (Cooper–Harvey–Kennedy);
* :mod:`repro.analysis.dominance_frontier` — dominance frontiers used for φ
  placement;
* :mod:`repro.analysis.loops` — natural loops and loop nesting depth;
* :mod:`repro.analysis.frequency` — static basic-block frequency estimation
  (the ``10^depth`` model used for spill costs);
* :mod:`repro.analysis.liveness` — live-in/live-out sets and MaxLive (the
  set-based reference the liveness checker recomputes);
* :mod:`repro.analysis.vr_index` / :mod:`repro.analysis.dense` — the dense
  bitset kernel: a stable register↔bit mapping per function, worklist
  liveness over int masks, single-pass bitmask interference construction
  and live intervals, equal to the set-based formulations;
* :mod:`repro.analysis.live_ranges` — linearised live intervals for the
  linear-scan allocators;
* :mod:`repro.analysis.ssa_construction` / :mod:`repro.analysis.ssa_destruction`
  — into and out of SSA form;
* :mod:`repro.analysis.interference` — interference graph construction;
* :mod:`repro.analysis.spill_costs` — the frequency-based spill-cost model.
"""

from repro.analysis.cfg import ControlFlowGraph, reverse_postorder
from repro.analysis.dominators import DominatorTree, dominator_tree
from repro.analysis.dominance_frontier import dominance_frontiers
from repro.analysis.loops import LoopInfo, natural_loops, loop_depths
from repro.analysis.frequency import block_frequencies
from repro.analysis.profile import (
    measure_spill_overhead,
    profile_block_frequencies,
    profiled_spill_costs,
)
from repro.analysis.liveness import LivenessInfo, liveness, max_live, validate_phi_edges
from repro.analysis.vr_index import VRIndex
from repro.analysis.dense import (
    DenseLivenessInfo,
    build_interference_graph_dense,
    dense_live_intervals,
    dense_liveness,
)
from repro.analysis.live_ranges import LiveInterval, live_intervals
from repro.analysis.ssa_construction import construct_ssa
from repro.analysis.ssa_destruction import destruct_ssa
from repro.analysis.interference import build_interference_graph
from repro.analysis.spill_costs import spill_costs

__all__ = [
    "ControlFlowGraph",
    "reverse_postorder",
    "DominatorTree",
    "dominator_tree",
    "dominance_frontiers",
    "LoopInfo",
    "natural_loops",
    "loop_depths",
    "block_frequencies",
    "profile_block_frequencies",
    "profiled_spill_costs",
    "measure_spill_overhead",
    "LivenessInfo",
    "liveness",
    "max_live",
    "validate_phi_edges",
    "VRIndex",
    "DenseLivenessInfo",
    "dense_liveness",
    "dense_live_intervals",
    "build_interference_graph_dense",
    "LiveInterval",
    "live_intervals",
    "construct_ssa",
    "destruct_ssa",
    "build_interference_graph",
    "spill_costs",
]
