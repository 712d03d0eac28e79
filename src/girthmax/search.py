"""Enumeration search for a girth-maximum (m, 3) BTU with m = b*k².

Candidate family: q1 ranges over the single (b*k)-cycles of S_{b*k},
and the three constituents are

    p1 = scale_up(q1, k),   p2 = identity(m),   p3 = circulant(m, j)

with j coprime to m and, by default, b*k < j < m - b*k. The search
reports the maximum girth over the (q1, j) candidates, tie-broken by
smallest j, then lexicographically smallest q1 image, so the result is
reproducible for any worker count.

Only the shifts with 2j < m are scanned, since the candidate (q1, j)
has the girth of (q1^-1, m - j) and the tie-break winner always has
2j < m (`search_r3` has the proof). Candidates are scanned j-major
(ascending j, then lex-ascending q1), which is exactly the tie-break
order. The shifts are scored one after another, each against a floor,
the best girth of the shifts before it, by a worker function that
takes a contiguous range of the q1 rows: in process one call covers
every row, and on a fork pool, for searches whose shifts are large
enough to repay it (`_POOL_MIN_PAIRS` scanned (row, root) pairs per
shift), the rows are cut into one range per worker, all scored at the
same floor. A worker gives every candidate of its range that can beat
the floor its exact girth and returns the range's best (girth, q1
index); the merge keeps the first strictly larger girth, and the
report's counts come in closed form from `candidate_counts`. The merge
stops at the first shift whose best girth meets
`_girth_ceiling`, the proven bound on every candidate's girth (2*b*k,
and the bipartite Moore bound on 2m vertices), and no later shift is
started, in process or on the pool.
The workers:

* `_level_scan`, the level engine, for searches of at least
  `_LEVEL_MIN_CANDIDATES` candidates, every k >= 5 among them. It reads
  the girths off batched non-backtracking walks over the p1 images,
  which `search_r3` scales once per search from the q1 image rows of
  `_levels.orbit_minima`, one q1 per isomorphism class (below); only
  the winner's row becomes a `Permutation`.
  Before that, `_levels.survivors` drops the candidates whose walks
  from one root show a girth no larger than the floor.
  The engine is the private module `_levels`; it loads numpy and is
  imported only when a search uses it.
* `_scan` for the tiny searches below that, which do not repay numpy's
  import. It scores each candidate by its definition, `girth_bfs` of
  `construct_candidate(q1, j, cfg)`, over the q1 of `enumerate_k_cycles`,
  and does not read the floor.

The level engine scans one q1 per isomorphism class within a shift.
With n = b*k and rho(i) = n - 1 - i, (q1, j) and (rho q1^-1 rho, j)
give isomorphic graphs under both scalings, and under block scaling so
do (q1, j) and (r q1 r^-1, j) for every rotation r(i) = i + c mod n.
Proof. Relabel both sides by sigma(x) = m - 1 - x (block) or
(n - 1 - x) mod m (interleaved): sigma fixes I, turns C_j into C_{m-j}
and scale_up(q1) into scale_up(rho q1 rho), and the transpose
(`search_r3`) takes (rho q1 rho, m - j) to (rho q1^-1 rho, j). Under
block scaling x -> x + c*k commutes with I and C_j and conjugates
scale_up(q1) into scale_up(r q1 r^-1). These maps generate a group of
order 2 (interleaved) or 2n (block), and the engine scans only the q1
that are lexicographically least in their orbit, in ascending order
(`_levels.orbit_minima`): 384 of the 720 q1 at n = 7 interleaved, 78
under block scaling. Proof that the winner is the same. Isomorphic
candidates have equal girth and the same double edges, so every q1 at
a shift's maximum has its orbit minimum, which is <= it, at that
maximum too. The shift's lex-first q1 at the maximum, the tie-break
winner, is therefore an orbit minimum, and the first one at the
maximum; the same holds above a floor, for `_levels.survivors`. The
counts and progress still cover every q1, in closed form
(`candidate_counts`), and `_scan` scores every q1. Fixing
image[0] = 1 is not such a relabeling: it would lose the maximum at
k = 5 and 7. The published k = 5..8 girths (8, 8, 10, 10) are attained
under interleaved scaling.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from math import comb, factorial, gcd
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
    "candidate_counts",
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


def _shifts(cfg: SearchConfig) -> list[int]:
    """The admissible shifts of a search, ascending; NoValidShift if there are none."""
    lower = cfg.b * cfg.k if cfg.j_range_filter else 0
    shifts = valid_shifts(cfg.m, lower) if cfg.m > 2 * lower else []
    if not shifts:
        raise NoValidShift(
            f"no shift j with gcd(j, {cfg.m}) = 1 in the required range"
            + (" (try j_range_filter=False)" if cfg.j_range_filter else "")
        )
    return shifts


def candidate_counts(cfg: SearchConfig) -> tuple[int, int]:
    """(evaluated, skipped): the compatible and incompatible (q1, j) of the full space.

    Proof. p1 has no fixed point (q1 is one n-cycle, n = b*k >= 2) and
    C_j != I (j != 0), so (q1, j) is incompatible exactly when
    p1(x) = x + j (mod m) for some x. Block scaling: (q1[i] - i)*k = j
    (mod m) needs k | j, ruled out by gcd(j, m) = 1. Interleaved
    scaling: q1[i] - i = j (mod m) with |q1[i] - i| < n means
    q1[i] - i = +-d, d = min(j, m - j), so d < n (never with the j
    filter on); the sign is that of m - 2j, and reflecting i -> n-1-i
    swaps it. The n - d forbidden arcs i -> i + d form a linear forest;
    any s of them lie in exactly (n - s - 1)! single n-cycles (contract
    each path to a point). By inclusion-exclusion
    sum_s (-1)^s C(n - d, s) (n - s - 1)! q1 are compatible, so the
    negated s >= 1 terms count the skipped ones (none when d >= n).
    Raises NoValidShift as `search_r3` does.
    """
    n, shifts = cfg.b * cfg.k, _shifts(cfg)
    skipped = 0
    if cfg.strategy is ScalingStrategy.INTERLEAVED:
        skipped = sum(
            (-1) ** (s + 1) * comb(n - d, s) * factorial(n - s - 1)
            for d in (min(j, cfg.m - j) for j in shifts)
            for s in range(1, n - d + 1)
        )
    return len(shifts) * factorial(n - 1) - skipped, skipped


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


def _scan(j: int, floor: int, lo: int, hi: int, state: tuple = ()) -> tuple[int, int]:
    """Score every candidate (q1, j), q1 in rows lo:hi, of one shift j by its definition.

    Returns the range's best (girth, q_idx): the largest exact girth
    under j with the index of the first q1 attaining it (girth 0 when
    every candidate is incompatible). The floor is not used.
    """
    q1s, cfg = state or _STATE
    best_g, best_q = 0, 0
    for q_idx, q1 in enumerate(q1s[lo:hi], lo):
        try:
            g = girth_bfs(construct_candidate(q1, j, cfg).matrix()).value
        except IncompatiblePermutations:
            continue
        if g > best_g:
            best_g, best_q = g, q_idx
    return best_g, best_q


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

# Searches whose shifts hold at least this many scanned (row, root) pairs
# run on a pool of cfg.worker_count processes, smaller ones in process. A
# shift is what the pool splits, one range of its rows per worker; its
# rows are the q1 that the search scans (the orbit minima on the level
# engine, every q1 on `_scan`), and a row has `_root_count` roots, b*k
# under interleaved scaling and m under block scaling. Measured as
# search_r3's elapsed time, each search in a fresh interpreter, medians
# of 6 runs on 1 worker against 2 (pool forced), alternating, on the
# host of the threshold above, whose run-to-run spread is about 20 %:
# block k = 9 (2,438 rows * 81 roots = 197,478 pairs) 0.23 s against
# 0.28 s, interleaved k = 9 (183,168) 0.46 against 0.36 s, block b = 2,
# k = 5 (937,200) 0.39 against 0.42 s, block k = 10 (1,874,400) 0.73
# against 0.73 s, interleaved b = 2, k = 5 (1,824,000) 0.79 against
# 0.67 s, interleaved k = 10 (1,824,000) 2.2 against 1.7 s. So every
# Table 1 search up to k = 9 and block k <= 9 run in process, while
# k = 10 and interleaved b = 2, k = 5 run on the pool. Interleaved k = 9
# would gain from the pool, but it has fewer pairs than block k = 9,
# which loses, so no threshold in this unit sends it there alone.
_POOL_MIN_PAIRS = 1_000_000


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


def _girth_ceiling(cfg: SearchConfig) -> int:
    """The proven bound on the girth of every candidate of the search.

    Proof. A compatible candidate is 3-regular and bipartite on 2m
    vertices. By the bipartite Moore bound (`bounds.moore_bipartite`),
    girth g needs at least 2(2^(g/2) - 1) vertices, so 2^(g/2) <= m + 1
    and g <= 2*((m + 1).bit_length() - 1). And p1 = scale_up(q1, k) is k
    disjoint (b*k)-cycles, each of which closes a cycle of length 2*b*k
    with the identity constituent. The Moore bound is written out here
    to keep the import of `bounds` off the search path.
    """
    return min(2 * cfg.b * cfg.k, 2 * ((cfg.m + 1).bit_length() - 1))


def _level_scan(j: int, floor: int, lo: int, hi: int, state: tuple = ()) -> tuple[int, int]:
    """Score the candidates (q1, j), q1 in rows lo:hi, that can beat `floor` with the level engine.

    Returns the range's best (girth, q_idx) as `_scan` does when that
    girth exceeds the floor, else (0, 0); q_idx indexes the rows of p,
    one per orbit minimum. `_levels.survivors` keeps
    exactly the candidates whose girth exceeds the floor, in ascending
    q1 order, so a maximum above the floor is attained only among them
    and the first survivor at it is the range's first q1 at it. At
    floor 0 every candidate is scored, since the survivors would only
    lack the incompatible ones, which score 0. The rows of p and pinv
    are C-ordered (`_levels.images`), so their slices are views.
    """
    from . import _levels

    p, pinv, roots, scratch = state or _STATE
    p, pinv = p[lo:hi], pinv[lo:hi]
    alive = _levels.survivors(p, pinv, j, roots, floor, scratch) if floor else None
    girths = _levels.shift_girths(p, pinv, j, roots, scratch, rows=alive)
    if not len(girths):
        return 0, 0
    best = int(girths.argmax())
    return int(girths[best]), lo + (best if alive is None else int(alive[best]))


def search_r3(
    cfg: SearchConfig,
    progress: Callable[[int, int, int], None] | None = None,
) -> SearchResult:
    """Exact search of the (q1, j) candidate space for r = 3.

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
    finds it. The counts are `candidate_counts`'. With none compatible
    the search raises NoValidShift before it scans; otherwise it finds
    a girth, since a compatible candidate is a 3-regular graph.

    The scan stops at the first shift whose best girth equals
    `_girth_ceiling(cfg)`. Proof that the winner is the same. No
    candidate has a larger girth, shifts are scored in ascending j and
    each returns its first q1 at the maximum, so that (j, q1) is the
    first maximum in tie-break order.

    Each shift is scored against a floor, the running best (the largest
    girth of the shifts with a smaller j), and reports its best only if
    that beats the floor. Proof that the winner is the same. Only a
    strictly larger girth replaces the running best, and a best above
    the floor comes with its first q1. On the pool the shift's rows are
    cut into ranges, ascending in q1, all scored at that floor. Proof
    that the shift's result is the same. Each range returns its own
    first q1 at its maximum when that beats the floor; the first range
    at the largest of these maxima holds the shift's first q1 at it, and
    `max` over the ranges in order keeps the first.

    `progress`, when given, is called after each scanned shift j with
    (candidates covered, total candidates, best girth so far); the
    shifts that the ceiling leaves unscanned count as covered, so the
    last call always has covered == total.
    Deterministic for a fixed cfg regardless of worker_count. A worker
    that dies raises concurrent.futures.process.BrokenProcessPool.
    """
    started = time.perf_counter()
    evaluated, skipped = candidate_counts(cfg)
    if not evaluated:
        raise NoValidShift("every candidate pair was incompatible")
    scanned = [j for j in _shifts(cfg) if 2 * j < cfg.m]
    ceiling = _girth_ceiling(cfg)
    n = cfg.b * cfg.k
    q1_count = factorial(n - 1)
    total = evaluated + skipped
    roots = _root_count(cfg)

    if total >= _LEVEL_MIN_CANDIDATES:
        from . import _levels

        q1s = _levels.orbit_minima(_levels.cycle_rows(n), cfg.strategy)
        p, pinv = _levels.images(q1s, cfg.k, cfg.strategy)
        scan, state = _level_scan, (p, pinv, roots, _levels.Scratch())
    else:
        q1s = list(enumerate_k_cycles(n))
        scan, state = _scan, (q1s, cfg)
    rows = len(q1s)
    workers = min(cfg.worker_count, rows) if rows * roots >= _POOL_MIN_PAIRS else 1

    best_girth, best_j, best_q = 0, 0, 0
    with contextlib.ExitStack() as stack:
        if workers == 1:
            score = lambda j, floor: scan(j, floor, 0, rows, state)
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, mp_context=ctx, initializer=_install, initargs=state)
            stack.callback(pool.shutdown, cancel_futures=True)
            cuts = [rows * w // workers for w in range(workers + 1)]

            def score(j, floor):
                # the ranges ascend in q1, and max keeps the first range at the maximum
                futures = [pool.submit(scan, j, floor, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
                return max((future.result() for future in futures), key=lambda result: result[0])

        # shifts are scored in scan order, which is the tie-break order
        for done, j in enumerate(scanned, 1):
            g, q_idx = score(j, best_girth)
            if g > best_girth:
                best_girth, best_j, best_q = g, j, q_idx
            stop = best_girth == ceiling
            if progress is not None:
                # shift m - j, left unscanned, is covered with j, and at
                # the ceiling so are the shifts after j
                progress(total if stop else 2 * done * q1_count, total, best_girth)
            if stop:
                break
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
