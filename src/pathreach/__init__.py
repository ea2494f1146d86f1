"""Reachability over walk decompositions and minimal path covers of DAGs.

Given a directed graph together with a family of k walks covering its
edges, reachability queries (decide_reachability) run with 2k index
registers plus eight scalars of working state, and report the minimum
number of switches between walks along the way.  For acyclic graphs the
package also computes a provably minimal edge-disjoint path cover by
numbering each vertex's incident edges and following the numbers.  The
public API is the names below, each documented in README.md.
"""

from .dagcover import CyclicGraphError, minimal_path_decomposition
from .decomposition import (
    DecompositionFormatError,
    ValidationReport,
    Violation,
    ViolationKind,
    Walk,
    WalkDecomposition,
    format_decomposition,
    parse_decomposition,
    path_number_lower_bound,
    union_graph,
    validate_path_decomposition,
    validate_walk_decomposition,
)
from .graph import (
    Digraph,
    GraphFormatError,
    format_graph,
    is_acyclic,
    parse_graph,
)
from .reach import ReachResult, decide_reachability

__all__ = [
    "CyclicGraphError",
    "DecompositionFormatError",
    "Digraph",
    "GraphFormatError",
    "ReachResult",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "Walk",
    "WalkDecomposition",
    "decide_reachability",
    "format_decomposition",
    "format_graph",
    "is_acyclic",
    "minimal_path_decomposition",
    "parse_decomposition",
    "parse_graph",
    "path_number_lower_bound",
    "union_graph",
    "validate_path_decomposition",
    "validate_walk_decomposition",
]

__version__ = "0.1.0"
