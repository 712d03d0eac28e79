"""Girth of simple bipartite graphs.

Two deliberately independent engines:

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
    copy of the right side's lists (the input is not touched). After
    its BFS, best <= every cycle through it, so later roots lose
    nothing: the smallest left vertex on a shortest cycle still sees
    the whole cycle. A walk closed in the smaller graph is one of the
    full graph and contains a cycle, so best never drops below the
    girth.

  Every call therefore returns exactly the girth: even, or infinite on
  forests. The witness is read off the BFS tree of the same pass.

* `girth_oracle` - exhaustive DFS enumeration of simple cycles, pruned
  only by the best length found so far. Exponential; guarded to at most
  32 vertices. Used to cross-check `girth_bfs` in the test suite.

Cycle witnesses use the flattened numbering left i -> i, right c ->
n_left + c; they list the cycle's vertices in order (closed implicitly).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Sequence

from .btu import BipartiteGraph, _columns

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
    adj: tuple[Sequence[Sequence[int]], list[list[int]]],
    seen: tuple[list[int], list[int]],
    parent: tuple[list[int], list[int]],
    root: int,
    best: int | float,
) -> tuple[int, int, int] | None:
    """BFS from left `root`, expanding depth d only while 2d + 2 < best.

    `adj`, `seen` and `parent` are (left, right) pairs of per-side lists;
    depth d lies on side d % 2. Returns (d, u, w) for the first non-tree
    edge u-w, seen from u at depth d, or None.
    """
    stamp = root + 1
    seen[0][root] = stamp
    parent[0][root] = -1
    frontier = [root]
    depth = 0
    while frontier and depth + depth + 2 < best:
        side = depth & 1
        nbrs, up = adj[side], parent[side]
        seen_next, down = seen[side ^ 1], parent[side ^ 1]
        nxt = []
        for u in frontier:
            pu = up[u]
            for w in nbrs[u]:
                if seen_next[w] != stamp:
                    seen_next[w] = stamp
                    down[w] = u
                    nxt.append(w)
                elif w != pu:
                    return depth, u, w
        frontier = nxt
        depth += 1
    return None


def _tree_path(parent: tuple[list[int], list[int]], x: int, side: int, n_left: int) -> list[int]:
    # flat vertices from x on `side` up to the root of the BFS tree
    path = []
    while x != -1:
        path.append(x + side * n_left)
        x = parent[side][x]
        side ^= 1
    return path


def girth_bfs(g: BipartiteGraph, want_witness: bool = False) -> GirthResult:
    """Exact girth of a simple bipartite graph by truncated BFS.

    Only `g.adjacency` (one row of right neighbours per left vertex, in
    any order) and `g.n_right` are read, and neither is changed. The
    value does not depend on the order within a row; the witness does.
    Each BFS is cut at the depth bound and each finished root is deleted
    from a private copy (module docstring: both keep the result exact).
    With `want_witness` the witness is the cycle closed by the edge that
    last lowered the best length: the two BFS-tree paths from that root
    to the edge's ends, joined by the edge. They share only the root, or
    a shorter cycle would exist.
    """
    rows = g.adjacency
    n_left = len(rows)
    cols = _columns(rows, g.n_right)
    adj = (rows, cols)
    seen = ([0] * n_left, [0] * g.n_right)
    parent = ([-1] * n_left, [-1] * g.n_right)
    best: int | float = inf
    witness = None

    for root in range(n_left):
        closed = _first_closing_edge(adj, seen, parent, root, best)
        if closed is not None:
            depth, u, w = closed
            best = depth + depth + 2
            if want_witness:
                # root..u, then w..(just before root)
                side = depth & 1
                there = _tree_path(parent, u, side, n_left)
                back = _tree_path(parent, w, side ^ 1, n_left)
                witness = tuple(there[::-1] + back[:-1])
            if best == 4:
                break  # simple bipartite graphs have girth >= 4
        for c in rows[root]:
            cols[c].remove(root)
    return GirthResult(best, witness=witness)


def girth_oracle(g: BipartiteGraph) -> GirthResult:
    """Exact girth by exhaustive simple-cycle enumeration (small graphs).

    Enumerates every simple cycle via DFS, visiting only vertices larger
    than the start so each cycle is rooted at its minimum vertex, and
    prunes paths that cannot close into a cycle shorter than (or tying)
    the best found. Returns the canonical witness: the lexicographically
    smallest vertex sequence among minimum-length cycles.
    """
    n = g.n_left + g.n_right
    if n > ORACLE_VERTEX_LIMIT:
        raise TooLarge(f"{n} vertices exceeds the oracle guard of {ORACLE_VERTEX_LIMIT}")
    adj = _flat_adjacency(g.adjacency, g.n_right)
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
