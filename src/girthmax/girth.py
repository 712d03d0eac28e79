"""Girth of simple bipartite graphs.

Two deliberately independent engines:

* `girth_bfs` - BFS from every left vertex (every cycle alternates
  sides, so left roots suffice). From a root, a non-tree edge between
  vertices at depths d1 and d2 closes a closed walk of length
  d1 + d2 + 1 through the root; the minimum over all roots and edges is
  exactly the girth, because the shortest cycle is detected from any of
  its own vertices. Each BFS stops expanding once it can no longer beat
  the best cycle seen so far. In a bipartite graph every such walk has
  even length, so the result is even (or infinite on forests). The
  witness is read off the BFS tree of the same pass.

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

from .btu import BipartiteGraph

__all__ = ["GirthResult", "TooLarge", "girth_bfs", "girth_oracle"]

ORACLE_VERTEX_LIMIT = 32


class TooLarge(ValueError):
    """Graph exceeds the oracle's exhaustive-enumeration guard."""


@dataclass(frozen=True)
class GirthResult:
    """Shortest-cycle length; inf when the graph is acyclic.

    When `at_or_below_cutoff` is set the search stopped early: `value`
    is the length of some cycle that is <= the requested cutoff (an
    upper bound on the true girth, sufficient for search pruning).
    """

    value: int | float
    witness: tuple[int, ...] | None = None
    at_or_below_cutoff: bool = False

    @property
    def is_finite(self) -> bool:
        return self.value != inf


def _flat_adjacency(rows: Sequence[Sequence[int]], n_right: int) -> list[list[int]]:
    # left i -> i, right c -> len(rows) + c; neighbour order is kept
    n_left = len(rows)
    adj: list[list[int]] = [[] for _ in range(n_left + n_right)]
    for i, nbrs in enumerate(rows):
        adj[i] = [n_left + c for c in nbrs]
        for c in nbrs:
            adj[n_left + c].append(i)
    return adj


def girth_bfs(
    g: BipartiteGraph,
    cutoff: int | None = None,
    want_witness: bool = False,
) -> GirthResult:
    """Exact girth of a simple bipartite graph by truncated BFS.

    With `cutoff` set, returns early (flagged) as soon as any cycle of
    length <= cutoff is seen; otherwise the returned value is exact.
    Only `g.adjacency` (one row of right neighbours per left vertex, in
    any order) and `g.n_right` are read. The verdict and the value do
    not depend on the order within a row; the witness does. With
    `want_witness` (and no early return) the witness is the cycle closed
    by the edge that last lowered the best length: the two BFS-tree
    paths from that root to the edge's ends, joined by the edge.
    """
    adj = _flat_adjacency(g.adjacency, g.n_right)
    n = len(adj)
    seen = [0] * n
    dist = [0] * n
    parent = [-1] * n
    stamp = 0
    best: int | float = inf
    witness: list[int] = []
    queue: list[int] = []

    for root in range(len(g.adjacency)):
        stamp += 1
        queue.clear()
        queue.append(root)
        seen[root] = stamp
        dist[root] = 0
        parent[root] = -1
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            du = dist[u]
            if du + du + 2 > best:
                # any cycle detected from here on is longer than best
                break
            pu = parent[u]
            for w in adj[u]:
                if seen[w] != stamp:
                    seen[w] = stamp
                    dw = du + 1
                    dist[w] = dw
                    parent[w] = u
                    # vertices deeper than (best-2)/2 cannot start a better cycle
                    if dw + dw < best:
                        queue.append(w)
                elif w != pu:
                    cycle_len = du + dist[w] + 1
                    if cycle_len < best:
                        best = cycle_len
                        if cutoff is not None and best <= cutoff:
                            return GirthResult(int(best), at_or_below_cutoff=True)
                        if want_witness:
                            # root..u, then w..(just before root); at the last
                            # improvement the two tree paths share only the
                            # root, or a shorter cycle would exist
                            witness.clear()
                            x = u
                            while x != -1:
                                witness.append(x)
                                x = parent[x]
                            witness.reverse()
                            x = w
                            while x != root:
                                witness.append(x)
                                x = parent[x]
        if best == 4:
            break  # simple bipartite graphs have girth >= 4
    if best == inf:
        return GirthResult(inf)
    return GirthResult(int(best), witness=tuple(witness) if want_witness else None)


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
