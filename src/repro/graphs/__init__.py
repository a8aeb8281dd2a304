"""Weighted undirected graphs and chordal-graph algorithms.

This subpackage is the graph substrate the allocators operate on.  It
provides:

* :class:`~repro.graphs.graph.Graph` — a dependency-free weighted
  undirected graph whose adjacency is one bitmask row per vertex; every
  kernel below works on the rows, and adjacency sets are built only when
  :meth:`~repro.graphs.graph.Graph.neighbors` is read;
* chordality machinery — maximum cardinality search, lexicographic BFS,
  perfect elimination orders and a chordality test
  (:mod:`repro.graphs.chordal`);
* maximal clique enumeration for chordal and general graphs
  (:mod:`repro.graphs.cliques`);
* Frank's linear-time maximum weighted stable set algorithm for chordal
  graphs, plus a greedy approximation and a brute-force reference
  (:mod:`repro.graphs.stable_set`);
* greedy colorings, and the colouring and clique number of an induced
  subgraph read off a PEO of the whole graph (:mod:`repro.graphs.coloring`);
* random graph generators used by the synthetic workloads
  (:mod:`repro.graphs.generators`);
* JSON (de)serialization of weighted graphs and their canonical content
  digest, the store's cache key (:mod:`repro.graphs.io`).
"""

from repro.graphs.graph import Graph, bit_indices
from repro.graphs.chordal import (
    is_chordal,
    is_perfect_elimination_order,
    maximum_cardinality_search,
    lex_bfs,
    perfect_elimination_order,
)
from repro.graphs.cliques import (
    maximal_cliques,
    maximal_cliques_chordal,
    maximal_cliques_general,
    maximum_clique_size,
)
from repro.graphs.stable_set import (
    maximum_weighted_stable_set,
    greedy_weighted_stable_set,
    brute_force_max_weight_stable_set,
    is_stable_set,
)
from repro.graphs.coloring import (
    greedy_coloring,
    chordal_coloring,
    chromatic_number_chordal,
    is_valid_coloring,
    restricted_clique_number,
    restricted_coloring,
)
from repro.graphs.io import graph_to_dict, graph_from_dict, dump_graph, load_graph

__all__ = [
    "Graph",
    "bit_indices",
    "is_chordal",
    "is_perfect_elimination_order",
    "maximum_cardinality_search",
    "lex_bfs",
    "perfect_elimination_order",
    "maximal_cliques",
    "maximal_cliques_chordal",
    "maximal_cliques_general",
    "maximum_clique_size",
    "maximum_weighted_stable_set",
    "greedy_weighted_stable_set",
    "brute_force_max_weight_stable_set",
    "is_stable_set",
    "greedy_coloring",
    "chordal_coloring",
    "chromatic_number_chordal",
    "is_valid_coloring",
    "restricted_clique_number",
    "restricted_coloring",
    "graph_to_dict",
    "graph_from_dict",
    "dump_graph",
    "load_graph",
]
