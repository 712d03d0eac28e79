"""Enumeration search for a girth-maximum (m, 3) BTU with m = b*k².

Candidate family: q1 ranges over the single (b*k)-cycles of S_{b*k},
and the three constituents are

    p1 = scale_up(q1, k),   p2 = identity(m),   p3 = circulant(m, j)

with j coprime to m and, by default, b*k < j < m - b*k. The search
evaluates the girth of every (q1, j) candidate and reports the maximum,
tie-broken by smallest j, then lexicographically smallest q1 image, so
the result is reproducible for any worker count.

Only the shifts with 2j < m are scanned, since the candidate (q1, j)
has the girth of (q1^-1, m - j) and the tie-break winner always has
2j < m (`search_r3` has the proof); each scanned shift counts twice.
Candidates are scanned j-major (ascending j, then lex-ascending q1),
which is exactly the tie-break order. Each scanned shift j is one task;
one worker function maps over the shifts, in process or, for searches
large enough to repay it (`_POOL_MIN_PAIRS`), on a fork pool, and both
maps return results in shift order, so the merge keeps the first
strictly larger girth. Both worker functions give every candidate its
exact girth:

* `_level_scan`, the level engine, for searches of at least
  `_LEVEL_MIN_CANDIDATES` candidates, every k >= 5 among them. It reads
  the girths off batched non-backtracking walks over the p1 images,
  which `search_r3` scales once per search from the q1 image rows of
  `_levels.cycle_rows`; only the winner's row becomes a `Permutation`.
  The engine is the private module `_levels`; it loads numpy and is
  imported only when a search uses it.
* `_scan` for the tiny searches below that, which do not repay numpy's
  import. It scores each candidate by its definition, `girth_bfs` of
  `construct_candidate(q1, j, cfg)`, over the q1 of `enumerate_k_cycles`.

Since scale_up of a (b*k)-cycle splits into k cycles of length b*k
against the identity constituent, every candidate's girth is at most
2*b*k.

Every (b*k)-cycle q1 is scanned at each scanned shift, since the
family has no relabeling symmetry acting on q1 alone (conjugating q1
does not fix the circulant constituent; the transpose pairs q1 with
q1^-1 only across the shifts j and m - j): fixing image[0] = 1 would
lose the maximum at k = 5 and 7. The published k=5..8 girths (8, 8, 10, 10) are attained under
interleaved scaling.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import time
from dataclasses import dataclass
from math import factorial, gcd
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


# Per-search state of a pool worker, installed by the pool initializer;
# a serial scan passes it instead. (q1s, cfg) for `_scan`,
# (p, pinv, roots, scratch) for `_level_scan`.
_STATE: tuple = ()


def _install(*state) -> None:
    global _STATE
    _STATE = state


def _scan(j: int, state: tuple = ()) -> tuple[int, int, int, int]:
    """Score every candidate (q1, j) of one shift j by its definition.

    Returns (girth, q_idx, evaluated, skipped): the largest exact girth
    under j with the index of the first q1 attaining it (girth 0 when
    every candidate is incompatible), and the numbers of evaluated and
    incompatible candidates.
    """
    q1s, cfg = state or _STATE
    best_g, best_q = 0, 0
    skipped = 0
    for q_idx, q1 in enumerate(q1s):
        try:
            g = girth_bfs(construct_candidate(q1, j, cfg).to_bipartite()).value
        except IncompatiblePermutations:
            skipped += 1
            continue
        if g > best_g:
            best_g, best_q = g, q_idx
    return best_g, best_q, len(q1s) - skipped, skipped


# Searches of at least this many candidates run on the level engine,
# smaller ones on `_scan`. Measured on a 2-vCPU Xeon (Python 3.11,
# numpy 2.4), 1 worker, interleaved unless noted. Warm, with numpy
# loaded, the engine wins at every size: k = 4 (24 candidates) 0.3 ms
# against 1.2 ms, k = 4 block without the j filter (48) 0.6 against
# 2.7 ms, b = 2, k = 3 (240) 0.6 against 13 ms, k = 5 (288) 1.1 against
# 22 ms. Cold, in a fresh interpreter, the engine first pays numpy's
# import, about 0.09 s, which no k <= 4 search (at most 48 candidates,
# 23 ms with imports on `_scan`) repays. So k <= 4 stays on `_scan` and
# loads no numpy, while b = 2, k = 3 and every k >= 5 (288 candidates
# and up) run on the engine: a lone cold k = 5 search takes about 0.1 s.
_LEVEL_MIN_CANDIDATES = 100

# Searches of at least this many scanned (candidate, root) pairs run on
# a pool of cfg.worker_count processes, smaller ones in process. A pair
# is the level engine's unit of work: a candidate has b*k roots under
# interleaved scaling and m under block scaling, and only the shifts
# with 2j < m are scanned. Starting the pool costs more than it saves
# below this. Measured as search_r3's elapsed time, each search in a
# fresh interpreter, 1 worker against 2 (pool forced), on the host of
# the threshold above: k = 7 block (0.53 million pairs) 0.16 s against
# 0.16 s, k = 8 interleaved (0.48 million) 0.20 s against 0.19 s, k = 8
# block (3.9 million) 0.44-0.57 s against 0.34-0.37 s, k = 9
# interleaved (7.6 million) 2.0 s against 1.2 s. So every Table 1 search
# (interleaved, k <= 8) and k = 7 block run in process, while k = 8
# block and k >= 9 run on the pool.
_POOL_MIN_PAIRS = 2_000_000


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

    Returns (girth, q_idx, evaluated, skipped) as `_scan` does.
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

    Only the shifts with 2j < m are scanned. Proof that this gives the
    full space's winner and counts. Transposing a candidate's matrix
    P1 + I + C_j swaps left and right, which keeps its girth and its
    double edges, and gives P1^-1 + I + C_{m-j}. Since scale_up(q1)^-1
    = scale_up(q1^-1) under both strategies, and q1^-1 is again a
    single cycle, (q1, j) and (q1^-1, m - j) have the same girth and
    are compatible together. The admissible shifts are closed under
    j -> m - j (gcd(m - j, m) = gcd(j, m), and the range filter is
    symmetric), and j = m/2 is never coprime to m >= 4. So a girth
    attained at j > m/2 is attained at m - j < m/2 too: the first
    maximum in (j, q1) order has 2j < m, and the scan of that half
    finds it. q1 -> q1^-1 is a bijection of the q1, so shift
    m - j has as many evaluated and incompatible candidates as j, and
    each scanned shift's counts are doubled.

    `progress`, when given, is called after each scanned shift j with
    (candidates covered, total candidates, best girth so far).
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
    scanned = [j for j in shifts if 2 * j < cfg.m]
    n = cfg.b * cfg.k
    q1_count = factorial(n - 1)
    total = len(shifts) * q1_count
    roots = _root_count(cfg)
    pairs = len(scanned) * q1_count * roots
    workers = min(cfg.worker_count, len(scanned)) if pairs >= _POOL_MIN_PAIRS else 1

    if total >= _LEVEL_MIN_CANDIDATES:
        from . import _levels

        q1s = _levels.cycle_rows(n)
        p, pinv = _levels.images(q1s, cfg.k, cfg.strategy)
        scan, state = _level_scan, (p, pinv, roots, _levels.Scratch())
    else:
        q1s = list(enumerate_k_cycles(n))
        scan, state = _scan, (q1s, cfg)

    best_girth, best_j, best_q = 0, 0, 0
    evaluated = 0
    skipped = 0
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = map(functools.partial(scan, state=state), scanned)
        else:
            from concurrent.futures import ProcessPoolExecutor

            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, mp_context=ctx, initializer=_install, initargs=state)
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(scan, scanned)
        # results come in scan order, which is the tie-break order
        for j, (g, q_idx, n_eval, n_skip) in zip(scanned, results):
            if g > best_girth:
                best_girth, best_j, best_q = g, j, q_idx
            # shift m - j, left unscanned, has the same counts
            evaluated += 2 * n_eval
            skipped += 2 * n_skip
            if progress is not None:
                progress(evaluated + skipped, total, best_girth)
    if best_girth == 0:
        raise NoValidShift("every candidate pair was incompatible")
    return SearchResult(
        best_girth=best_girth,
        # a Permutation or a uint8 image row, read as Python ints
        witness_q1=Permutation(map(int, q1s[best_q])),
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
