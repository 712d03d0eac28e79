"""Girth-maximum regular bipartite graphs built from compatible permutations.

The library constructs r-regular bipartite graphs as sums of r disjoint
permutation matrices (balanced Tanner units), computes girth with a
cross-checked BFS engine, searches the scaled-cycle x circulant
candidate family for the maximum-girth degree-3 graph at m = b*k^2, and
evaluates the classical girth/order bounds the results sit between.

The package exports each submodule's `__all__`, which is the one list of
its public names; `bounds` is imported on its own.
"""

from . import btu, girth, perm, search
from .btu import *
from .girth import *
from .perm import *
from .search import *

__version__ = "0.1.0"

__all__ = [*btu.__all__, *girth.__all__, *perm.__all__, *search.__all__]
