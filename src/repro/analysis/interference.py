"""Interference graph construction.

Two virtual registers interfere when one is defined at a point where the
other is live (the classical Chaitin definition); φ results and parameters
interfere with everything live where they are defined (block entry,
function entry).

For a strict-SSA function the resulting graph is chordal (live ranges are
subtrees of the dominance tree); the non-SSA pipeline produces general
graphs.  Spill-cost weights are attached from :mod:`repro.analysis.spill_costs`
unless an explicit weight map is supplied.

The builder is the dense kernel's
(:func:`repro.analysis.dense.build_interference_graph_dense`), exported here
under its classic name; it reads the bitmask liveness of
:func:`repro.analysis.dense.dense_liveness`.
"""

from __future__ import annotations

from repro.analysis.dense import build_interference_graph_dense

build_interference_graph = build_interference_graph_dense
