"""Shared helpers for the pipeline suite."""

from repro.analysis.dense import dense_liveness
from repro.analysis.liveness import liveness
from repro.analysis.spill_costs import spill_costs
from repro.analysis.ssa_construction import construct_ssa
from repro.analysis.ssa_destruction import coalesce_copies, destruct_ssa
from tests.analysis.set_reference import build_interference_graph, live_intervals


def legacy_front_end(function, target, ssa):
    """The pre-engine front end: loose calls into the set-based kernels.

    Returns the context fields the ``liveness`` and ``interference`` stages
    provide (``lowered``, ``liveness``, ``costs``, ``graph``, ``intervals``).
    Frozen here as the reference the golden and dense-parity suites compare
    the pipeline against.  The set-based liveness feeds the set-based
    builders; the context's ``liveness`` field holds the
    ``DenseLivenessInfo`` the pipeline carries, so the context passes the
    checkers too.
    """
    lowered = construct_ssa(function)
    if not ssa:
        lowered = coalesce_copies(destruct_ssa(lowered, coalesce_phi_webs=True))
    info = liveness(lowered)
    costs = spill_costs(lowered, store_cost=target.store_cost, load_cost=target.load_cost)
    return {
        "lowered": lowered,
        "liveness": dense_liveness(lowered),
        "costs": costs,
        "graph": build_interference_graph(lowered, info=info, weights=costs),
        "intervals": live_intervals(lowered, info=info),
    }
