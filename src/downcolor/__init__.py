"""Down-colorings of digraphs and the machinery around them.

A down-coloring gives distinct colors to any two vertices that appear
together in a closed down-set.  The package computes such colorings
greedily or exactly, brackets the optimum with degeneracy bounds,
translates between digraphs and hypergraphs, builds affine-space block
designs over finite fields, evaluates the discrepancy-ratio bounds, and
stores transitive closures compactly by color.
"""

from .coloring import (BoundReport, Coloring, ExactResult, bound_report,
                       coloring_from_json, coloring_to_json, down_coloring,
                       exact_chromatic, exact_strong_chromatic,
                       find_down_violation, greedy_strong_coloring,
                       verify_down_coloring)
from .compact import (AcCheck, CompactMatrix, CompressionStats,
                      build_compact, canonical_columns, is_below,
                      is_below_ids, parse_compact, serialize, stats,
                      verify_ac_property)
from .designs import (DesignParams, DiscrepancyPoint, DsBounds, FieldElement,
                      FiniteField, affine_design, build_field, cor3_point,
                      cor4_point, ds_bounds, hkm_design, is_prime,
                      prime_power, r_plus, validate_bibd)
from .digraph import (Digraph, UndirectedGraph, big_d, condense_to_acyclic,
                      down_graph, down_set, format_digraph,
                      height_two_reduction, is_acyclic, max_vertices,
                      parse_digraph, transitive_closure)
from .errors import (BibdError, CapExceededError, ColoringError,
                     CyclicGraphError, DowncolorError, ParseError)
from .hypergraph import (DegeneracyResult, Hypergraph, clique_graph,
                         degeneracy, down_hypergraph, format_hypergraph,
                         graph_degeneracy, induced_subhypergraph,
                         intersection_graph, parse_hypergraph, up_digraph)

__version__ = "0.1.0"
