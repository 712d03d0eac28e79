"""Girth of the bipartite graph of a 0/1 matrix.

The graph of a `BinaryMatrix` (`Btu.matrix()` for a BTU) has one left
vertex per row and one right vertex per column, left i adjacent to
right c where row i lists column c; it is simple, since a 0/1 matrix
has no double edge. The matrix need be neither square nor regular.
Two deliberately independent engines read it:

* `girth_bfs` - truncated BFS from every left vertex (every cycle
  alternates sides, so left roots suffice), cut by two reductions, each
  exact for the reason given:

  - *Depth bound.* A BFS expands depth d only while 2d + 2 < best.
    Until it sees its first non-tree edge, every edge between depths
    d - 1 and d is a tree edge, so the first non-tree edge, seen from
    depth d, goes to depth d + 1 (depth d is on the same side) and
    closes a walk of length exactly 2d + 2 through the root. Nothing
    shorter can follow, so that BFS ends there. A shortest cycle C, of
    length 2L, through the root lies within depth L and has an edge
    that is not a tree edge; that edge is seen from some depth
    d <= L - 1, so the BFS closes a walk of length <= 2L unless best is
    already <= 2L.
  - *Root deletion.* A finished left root is deleted from a private
    copy of the column lists (the input is not touched). After
    its BFS, best <= every cycle through it, so later roots lose
    nothing: the smallest left vertex on a shortest cycle still sees
    the whole cycle. A walk closed in the smaller graph is one of the
    full graph and contains a cycle, so best never drops below the
    girth.

  Every call therefore returns exactly the girth: even, or infinite on
  forests. The witness is read off the BFS tree of the same pass. The
  BFS numbers right c as c and left i as n_cols + i, so one list per
  array covers both sides; the witness is renumbered once, at the end.

* `girth_oracle` - exhaustive DFS enumeration of simple cycles, pruned
  only by the best length found so far. Exponential; guarded to at most
  32 vertices. Used to cross-check `girth_bfs` in the test suite.

Cycle witnesses use the flattened numbering left i -> i, right c ->
n_rows + c; they list the cycle's vertices in order (closed implicitly).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Sequence

from .btu import BinaryMatrix, _columns

__all__ = ["GirthResult", "TooLarge", "girth_bfs", "girth_oracle"]

ORACLE_VERTEX_LIMIT = 32


class TooLarge(ValueError):
    """Graph exceeds the oracle's exhaustive-enumeration guard."""


@dataclass(frozen=True)
class GirthResult:
    """Exact shortest-cycle length; inf when the graph is acyclic.

    `witness` is one cycle of that length, when the caller asks for it.
    """

    value: int | float
    witness: tuple[int, ...] | None = None
    # no longer a field: perfbench/measure.py (the graph_io check) and
    # perfbench/tracing.py still read it; remove it with those reads
    at_or_below_cutoff = False

    @property
    def is_finite(self) -> bool:
        return self.value != inf


def _flat_adjacency(rows: Sequence[Sequence[int]], n_right: int) -> list[list[int]]:
    # left i -> i, right c -> len(rows) + c; neighbour order is kept
    n_left = len(rows)
    return [[n_left + c for c in nbrs] for nbrs in rows] + _columns(rows, n_right)


def _first_closing_edge(
    adj: Sequence[Sequence[int]], seen: list[int], parent: list[int], root: int, best: int | float
) -> tuple[int, int, int] | None:
    """BFS from `root`, expanding depth d only while 2d + 2 < best.

    `adj`, `seen` and `parent` are indexed by `girth_bfs`'s internal
    vertex numbers. Returns (d, u, w) for the first non-tree edge u-w,
    seen from u at depth d, or None.
    """
    stamp = root + 1
    seen[root] = stamp
    parent[root] = -1
    frontier = [root]
    depth = 0
    while frontier and depth + depth + 2 < best:
        nxt = []
        for u in frontier:
            pu = parent[u]
            for w in adj[u]:
                if seen[w] != stamp:
                    seen[w] = stamp
                    parent[w] = u
                    nxt.append(w)
                elif w != pu:
                    return depth, u, w
        frontier = nxt
        depth += 1
    return None


def _tree_path(parent: list[int], x: int) -> list[int]:
    # vertices from x up to the root of the BFS tree
    path = []
    while x != -1:
        path.append(x)
        x = parent[x]
    return path


def girth_bfs(g: BinaryMatrix, want_witness: bool = False) -> GirthResult:
    """Exact girth of the matrix's bipartite graph by truncated BFS.

    Only `g.rows` (each row's sorted columns: the right neighbours of
    its left vertex) and `g.n_cols` are read, and neither is changed.
    Inside, right c is vertex c and left i is vertex n_cols + i, so
    `g.rows` serves as is for the left vertices' lists and a private
    copy of the columns for the right ones. Each BFS is cut at the depth
    bound and each finished root is deleted from that copy (module
    docstring: both keep the result exact). With `want_witness` the
    witness is the cycle closed by the edge that last lowered the best
    length: the two BFS-tree paths from that root to the edge's ends,
    joined by the edge. They share only the root, or a shorter cycle
    would exist. It is renumbered once, at the end, to left i -> i and
    right c -> n_rows + c.
    """
    rows, n_cols = g.rows, g.n_cols
    n_left = len(rows)
    adj = _columns(rows, n_cols, first=n_cols) + list(rows)
    seen = [0] * len(adj)
    parent = [-1] * len(adj)
    best: int | float = inf
    cycle = None

    for root in range(n_cols, len(adj)):
        closed = _first_closing_edge(adj, seen, parent, root, best)
        if closed is not None:
            depth, u, w = closed
            best = depth + depth + 2
            if want_witness:
                # root..u, then w..(just before root)
                cycle = _tree_path(parent, u)[::-1] + _tree_path(parent, w)[:-1]
            if best == 4:
                break  # simple bipartite graphs have girth >= 4
        for c in adj[root]:
            adj[c].remove(root)
    if cycle is None:
        return GirthResult(best)
    return GirthResult(best, witness=tuple(v - n_cols if v >= n_cols else n_left + v for v in cycle))


def girth_oracle(g: BinaryMatrix) -> GirthResult:
    """Exact girth of the matrix's graph by exhaustive cycle enumeration.

    Reads `g.rows` and `g.n_cols`, and `g.n_rows` for the guard of at
    most 32 vertices (rows plus columns). Enumerates every simple cycle
    via DFS, visiting only vertices larger than the start so each cycle
    is rooted at its minimum vertex, and prunes paths that cannot close
    into a cycle shorter than (or tying) the best found. Returns the
    canonical witness: the lexicographically smallest vertex sequence
    among minimum-length cycles, with left i numbered i and right c
    numbered n_rows + c.
    """
    n = g.n_rows + g.n_cols
    if n > ORACLE_VERTEX_LIMIT:
        raise TooLarge(f"{n} vertices exceeds the oracle guard of {ORACLE_VERTEX_LIMIT}")
    adj = _flat_adjacency(g.rows, g.n_cols)
    best: int | float = inf
    best_witness: tuple[int, ...] | None = None
    on_path = [False] * n
    path: list[int] = []

    def extend(start: int, u: int) -> None:
        nonlocal best, best_witness
        for w in adj[u]:
            if w == start and len(path) >= 3:
                candidate = tuple(path)
                if len(path) < best or (len(path) == best and candidate < best_witness):
                    best = len(path)
                    best_witness = candidate
            elif w > start and not on_path[w] and len(path) < best:
                on_path[w] = True
                path.append(w)
                extend(start, w)
                path.pop()
                on_path[w] = False

    for start in range(n):
        on_path[start] = True
        path.append(start)
        extend(start, start)
        path.pop()
        on_path[start] = False
    if best_witness is None:
        return GirthResult(inf)
    return GirthResult(int(best), witness=best_witness)
