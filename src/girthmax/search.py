"""Enumeration search for a girth-maximum (m, 3) BTU with m = b*k².

Candidate family: q1 ranges over the single (b*k)-cycles of S_{b*k},
and the three constituents are

    p1 = scale_up(q1, k),   p2 = identity(m),   p3 = circulant(m, j)

with j coprime to m and, by default, b*k < j < m - b*k. The search
evaluates the girth of every (q1, j) candidate and reports the maximum,
tie-broken by smallest j, then lexicographically smallest q1 image, so
the result is reproducible for any worker count.

Candidates are scanned j-major (ascending j, then lex-ascending q1),
which is exactly the tie-break order. Each shift j is one task; one
worker function maps over the shifts, in process or, for searches
large enough to repay it (`_POOL_MIN_PAIRS`), on a fork pool, and both
maps return results in shift order, so the merge keeps the first
strictly larger girth. There are two worker functions; both read the
p1 images that `search_r3` scales once per search, not per candidate:

* `_level_scan`, the level engine, for searches of at least
  `_LEVEL_MIN_CANDIDATES` candidates. It gets every candidate's exact
  girth from batched non-backtracking walks and keeps no incumbent.
  The engine is the private module `_levels`; it loads numpy and is
  imported only when a search uses it.
* `_scan` for smaller searches, which do not repay numpy's import. It
  runs `girth_bfs` per candidate with an advisory incumbent, the best
  girth its process has seen: a candidate is discarded only when a
  cycle of length <= incumbent - 2 is found, i.e. only when it is
  provably *strictly* below the final maximum, so pruning and
  scheduling can never change the winner.

Since scale_up of a (b*k)-cycle splits into k cycles of length b*k
against the identity constituent, every candidate's girth is at most
2*b*k.

Every (b*k)-cycle q1 is scanned, since the family has no relabeling
symmetry acting on q1 (conjugating q1 does not fix the circulant
constituent): fixing image[0] = 1 would lose the maximum at k = 5 and
7. The published k=5..8 girths (8, 8, 10, 10) are attained under
interleaved scaling.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import time
from dataclasses import dataclass
from math import gcd
from types import SimpleNamespace
from typing import Callable

from .btu import Btu, IncompatiblePermutations
from .girth import girth_bfs
from .perm import (
    Permutation,
    ScalingStrategy,
    circulant,
    enumerate_k_cycles,
    identity,
    one_based,
    scale_up,
)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "NoValidShift",
    "valid_shifts",
    "construct_candidate",
    "search_r3",
    "format_report",
    "report_dict",
]


class NoValidShift(ValueError):
    """No circulant shift satisfies the coprimality/range constraints."""


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run; m = b*k² is always derived."""

    k: int
    b: int = 1
    strategy: ScalingStrategy = ScalingStrategy.BLOCK
    j_range_filter: bool = True
    worker_count: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        object.__setattr__(self, "strategy", ScalingStrategy(self.strategy))

    @property
    def m(self) -> int:
        return self.b * self.k * self.k


@dataclass(frozen=True)
class SearchResult:
    best_girth: int
    witness_q1: Permutation
    witness_j: int
    candidates_evaluated: int
    skipped_incompatible: int
    elapsed: float


def valid_shifts(m: int, lower: int) -> list[int]:
    """Shifts j with gcd(j, m) = 1 and lower < j < m - lower, ascending.

    gcd(j, m - j) = gcd(j, m), so coprimality of the triple
    (j, m, m - j) reduces to gcd(j, m) = 1. Pass lower=0 for the
    unrestricted range 0 < j < m.
    """
    if lower < 0:
        raise ValueError("lower bound must be >= 0")
    if m <= 2 * lower:
        raise ValueError(f"m={m} leaves no room for shifts above {lower}")
    return [j for j in range(lower + 1, m - lower) if gcd(j, m) == 1]


def construct_candidate(q1: Permutation, j: int, cfg: SearchConfig) -> Btu:
    """Assemble the (m, 3) candidate for (q1, j); may raise IncompatiblePermutations."""
    m = cfg.m
    if q1.size != cfg.b * cfg.k:
        raise ValueError(f"q1 acts on {q1.size} elements, expected {cfg.b * cfg.k}")
    return Btu((scale_up(q1, cfg.k, cfg.strategy), identity(m), circulant(m, j)))


def _evaluate(p1: tuple[int, ...], j: int, cutoff: int | None) -> int | None:
    """Exact girth of candidate (p1, I, C_j), or None when pruned (girth <= cutoff).

    p1 is the image of scale_up(q1); `girth_bfs` scores the rows
    (p1[i], i, i + j mod m), and no `Btu` or `BipartiteGraph` is built.
    Raises IncompatiblePermutations exactly where `construct_candidate`
    does: at the first i with p1[i] = i or p1[i] = i + j mod m. I and
    C_j never collide: i = i + j mod m would need j = 0 mod m, and 0 < j < m.
    """
    m = len(p1)
    rows = []
    for i, v in enumerate(p1):
        c = (i + j) % m
        if v == i or v == c:
            raise IncompatiblePermutations(i, 0, 1 if v == i else 2)
        rows.append((v, i, c))
    result = girth_bfs(SimpleNamespace(adjacency=rows, n_right=m), cutoff)
    return None if result.at_or_below_cutoff else int(result.value)


# Per-search state of a pool worker, installed by the pool initializer;
# a serial scan passes it instead. (p1s, incumbent) for `_scan`,
# (p, pinv, roots, scratch) for `_level_scan`.
_STATE: tuple = ()


def _install(*state) -> None:
    global _STATE
    _STATE = state


def _scan(j: int, state: tuple = ()) -> tuple[int, int, int, int]:
    """Evaluate the candidates (q1, j) of one shift j, for every q1.

    Returns (girth, q_idx, evaluated, skipped): the largest exact girth
    under j with the index of the first q1 attaining it (girth 0 when
    no candidate got an exact girth), and the numbers of evaluated and
    incompatible candidates.

    Pruning never changes the winner. The incumbent only ever holds a
    girth some candidate attains, so it never exceeds the final maximum
    G. A candidate is cut off only when it has a cycle of length
    <= incumbent - 2 < G, so every candidate of girth G gets its exact
    girth. Hence a task holding a girth-G candidate reports G and its
    first such candidate, and taking the first strictly larger girth
    over the tasks in scan order yields the first girth-G candidate in
    (j ascending, q1 lex) order, whatever the incumbent was when each
    candidate ran.
    """
    p1s, incumbent = state or _STATE
    best_g, best_q = 0, 0
    evaluated = 0
    skipped = 0
    for q_idx, p1 in enumerate(p1s):
        cutoff = incumbent[0] - 2 if incumbent[0] >= 6 else None
        try:
            g = _evaluate(p1, j, cutoff)
        except IncompatiblePermutations:
            skipped += 1
            continue
        evaluated += 1
        if g is None:
            continue
        incumbent[0] = max(incumbent[0], g)
        if g > best_g:
            best_g, best_q = g, q_idx
    return best_g, best_q, evaluated, skipped


# Searches of at least this many candidates run on the level engine.
# Measured with each search in a fresh interpreter, imports included,
# 1 worker, on a 2-vCPU Xeon (Python 3.11, numpy 2.4): numpy's import
# costs the engine about 0.17 s, which BFS overtakes at about 3,000
# candidates under interleaved scaling (1,440: BFS 0.11 s, engine
# 0.19 s; 3,600: 0.22 s and 0.19 s) and about 1,400 under block scaling
# (1,440: 0.23 s and 0.22 s). Table 1 rows k <= 6 (at most 960
# candidates, 1,440 without the j filter) stay on BFS; k = 7 (21,600)
# runs on the engine.
_LEVEL_MIN_CANDIDATES = 2000

# Searches of at least this many (candidate, root) pairs run on a pool
# of cfg.worker_count processes, smaller ones in process. A pair is the
# level engine's unit of work: a candidate has b*k roots under
# interleaved scaling and m under block scaling. Starting the pool costs
# more than it saves below this. Measured with each search in a fresh
# interpreter, 1 worker against 2, on the host of the threshold above:
# k = 7 block (1.06 million pairs) 0.27 s against 0.27 s, k = 8
# interleaved (0.97 million) 0.37 s against 0.36 s, k = 8 block (7.7
# million) 1.07 s against 0.82 s, k = 9 interleaved (15.2 million) 4.76 s
# against 2.79 s. Every Table 1 search (k <= 8) thus runs in process.
_POOL_MIN_PAIRS = 4_000_000


def _root_count(cfg: SearchConfig) -> int:
    """Roots per candidate, left vertices 0..count-1, of the level engine and the pool rule.

    They must meet every shortest cycle and double edge. Block scaling
    takes all m. Interleaved scaling takes n = b*k: there p1 maps
    i + t*n to q1[i] + t*n, so x -> x + n mod m (on both sides)
    commutes with p1, I and C_j and is an automorphism of the graph.
    It moves any shortest cycle, or double edge, through a left vertex
    x onto one through x mod n.
    """
    return cfg.b * cfg.k if cfg.strategy is ScalingStrategy.INTERLEAVED else cfg.m


def _level_scan(j: int, state: tuple = ()) -> tuple[int, int, int, int]:
    """Score every candidate (q1, j) of one shift j with the level engine.

    Returns (girth, q_idx, evaluated, skipped) as `_scan` does. Every
    candidate gets its exact girth, so q_idx is the first q1 of the
    largest girth and no incumbent is needed.
    """
    import numpy as np

    from . import _levels

    p, pinv, roots, scratch = state or _STATE
    girths = _levels.shift_girths(p, pinv, j, roots, scratch)
    best_q = int(girths.argmax())
    evaluated = int(np.count_nonzero(girths))
    return int(girths[best_q]), best_q, evaluated, len(girths) - evaluated


def search_r3(
    cfg: SearchConfig,
    progress: Callable[[int, int, int], None] | None = None,
) -> SearchResult:
    """Exhaustive scan of the (q1, j) candidate space for r = 3.

    `progress`, when given, is called after each shift j with
    (candidates processed, total candidates, best girth so far).
    Deterministic for a fixed cfg regardless of worker_count. A worker
    that dies raises concurrent.futures.process.BrokenProcessPool.
    """
    started = time.perf_counter()
    lower = cfg.b * cfg.k if cfg.j_range_filter else 0
    shifts = valid_shifts(cfg.m, lower) if cfg.m > 2 * lower else []
    if not shifts:
        raise NoValidShift(
            f"no shift j with gcd(j, {cfg.m}) = 1 in the required range"
            + (" (try j_range_filter=False)" if cfg.j_range_filter else "")
        )
    q1s = list(enumerate_k_cycles(cfg.b * cfg.k))
    total = len(shifts) * len(q1s)
    roots = _root_count(cfg)
    workers = min(cfg.worker_count, len(shifts)) if total * roots >= _POOL_MIN_PAIRS else 1

    if total >= _LEVEL_MIN_CANDIDATES:
        from . import _levels

        p, pinv = _levels.images(q1s, cfg.k, cfg.strategy)
        scan, state = _level_scan, (p, pinv, roots, _levels.Scratch())
    else:
        p1s = [scale_up(q1, cfg.k, cfg.strategy).image for q1 in q1s]
        scan, state = _scan, (p1s, [0])

    best_girth, best_j, best_q = 0, 0, 0
    evaluated = 0
    skipped = 0
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = map(functools.partial(scan, state=state), shifts)
        else:
            from concurrent.futures import ProcessPoolExecutor

            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, mp_context=ctx, initializer=_install, initargs=state)
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(scan, shifts)
        # results come in scan order, which is the tie-break order
        for j, (g, q_idx, n_eval, n_skip) in zip(shifts, results):
            if g > best_girth:
                best_girth, best_j, best_q = g, j, q_idx
            evaluated += n_eval
            skipped += n_skip
            if progress is not None:
                progress(evaluated + skipped, total, best_girth)
    if best_girth == 0:
        raise NoValidShift("every candidate pair was incompatible")
    return SearchResult(
        best_girth=best_girth,
        witness_q1=q1s[best_q],
        witness_j=best_j,
        candidates_evaluated=evaluated,
        skipped_incompatible=skipped,
        elapsed=time.perf_counter() - started,
    )


def report_dict(cfg: SearchConfig, result: SearchResult) -> dict:
    """Search report as a plain dict (JSON-ready)."""
    return {
        "k": cfg.k,
        "b": cfg.b,
        "m": cfg.m,
        "strategy": cfg.strategy.value,
        "best_girth": result.best_girth,
        "witness_q1": one_based(result.witness_q1),
        "witness_j": result.witness_j,
        "candidates_evaluated": result.candidates_evaluated,
        "skipped_incompatible": result.skipped_incompatible,
        "elapsed_ms": round(result.elapsed * 1000),
    }


def format_report(cfg: SearchConfig, result: SearchResult) -> str:
    """Search report as a line-oriented key: value block."""
    return "".join(f"{key}: {value}\n" for key, value in report_dict(cfg, result).items())
