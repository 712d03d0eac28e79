"""Girth-maximum regular bipartite graphs built from compatible permutations.

The library constructs r-regular bipartite graphs as sums of r disjoint
permutation matrices (balanced Tanner units), computes girth with a
cross-checked BFS engine, searches the scaled-cycle x circulant
candidate family for the maximum-girth degree-3 graph at m = b*k^2, and
evaluates the classical girth/order bounds the results sit between.
"""

from .btu import (
    BinaryMatrix,
    BipartiteGraph,
    Btu,
    DecompositionFailed,
    IncompatiblePermutations,
    MalformedAlist,
    MalformedDimacs,
    NotRegular,
    btu_from_matrix,
    read_alist,
    read_dense,
    read_dimacs,
    same_matrix,
    write_alist,
    write_dense,
    write_dimacs,
)
from .girth import GirthResult, TooLarge, girth_bfs, girth_oracle
from .perm import (
    CycleType,
    Permutation,
    ScalingStrategy,
    circulant,
    compose,
    cycle_type,
    enumerate_k_cycles,
    identity,
    inverse,
    one_based,
    relative_cycle_type,
    scale_up,
)
from .search import (
    NoValidShift,
    SearchConfig,
    SearchResult,
    construct_candidate,
    format_report,
    report_dict,
    search_r3,
    valid_shifts,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "BipartiteGraph",
    "Btu",
    "CycleType",
    "DecompositionFailed",
    "GirthResult",
    "IncompatiblePermutations",
    "MalformedAlist",
    "MalformedDimacs",
    "NotRegular",
    "NoValidShift",
    "Permutation",
    "ScalingStrategy",
    "SearchConfig",
    "SearchResult",
    "TooLarge",
    "btu_from_matrix",
    "circulant",
    "compose",
    "construct_candidate",
    "cycle_type",
    "enumerate_k_cycles",
    "format_report",
    "girth_bfs",
    "girth_oracle",
    "identity",
    "inverse",
    "one_based",
    "read_alist",
    "read_dense",
    "read_dimacs",
    "relative_cycle_type",
    "report_dict",
    "same_matrix",
    "scale_up",
    "search_r3",
    "valid_shifts",
    "write_alist",
    "write_dense",
    "write_dimacs",
]
