"""``DenseGraph``: another name for :class:`~repro.graphs.graph.Graph`.

Every graph stores its adjacency as one bitmask row per vertex, and every
graph kernel works on the rows.  Mutation contract: all mutations edit the
rows in place (see :mod:`repro.graphs.graph`).  The name stays because the
repository benchmark's layer tracing (``perfbench/trace_layers.py``) looks
the class up as ``repro.graphs.dense.DenseGraph``.
"""

from repro.graphs.graph import Graph

DenseGraph = Graph
