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
order. The unit of work is (floor, batch of consecutive shifts, q1 row
range). Batches are scored one after another, each against a floor, the
best girth of the shifts before it, by a worker function that takes a
contiguous range of the q1 rows: in process one call covers every row,
and on a fork pool, for searches whose shifts are large enough to repay
it (`_POOL_MIN_ROWS` scanned q1 rows per shift), the rows are cut into
one range per worker, all scored at the same floor. A worker
gives every candidate of its range that can beat the floor its exact
girth and returns the range's best (girth, q1 index) per shift; the
merge goes shift by shift in ascending j and keeps the first strictly
larger girth, and the report's counts come in closed form from
`candidate_counts`. The merge stops at the first shift whose best girth
meets `_girth_ceiling`, the proven bound on every candidate's girth
(the bipartite Moore bound on 2m vertices), and no later batch is
started, in process or on the pool. The level engine's exact calls also
stop their walks at the ceiling (`_levels.setup` proves them exact).

Batch sizes start at `least`, the number of shifts whose candidates
one exact call of the level engine holds, double up to `most`, the
limit past which a larger batch saves no call (both from
`_levels.setup` on the level engine, both 1 on `_scan`), and go back to
`least` whenever the best girth is one step (2) below the ceiling,
since any survivor then ends the search and the shifts of a batch
after it would be scored for nothing, beyond those that ride in the
same exact call. Every range, in process or on the pool, is one `_task`
call, which hands it to the search's scorer:

* `_levels.batch_bests`, the level engine, for searches of at least
  `_LEVEL_MIN_CANDIDATES` candidates, every k >= 5 among them. The
  engine is the private module `_levels`, imported (with numpy) only
  when a search uses it, behind two calls: `_levels.setup` builds the
  q1 rows, one per isomorphism class (below), and the engine's tables
  of them once per search, and `_levels.batch_bests` scores a batch on
  rows lo:hi of those tables, which `search` passes on unread. The
  roots that the engine walks from are among its tables, and
  `_levels.root_count` proves that they suffice. Only the winner's row
  becomes a `Permutation`.
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
(`_levels.setup`): 384 of the 720 q1 at n = 7 interleaved, 78
under block scaling. Proof that the winner is the same. Isomorphic
candidates have equal girth and the same double edges, so every q1 at
a shift's maximum has its orbit minimum, which is <= it, at that
maximum too. The shift's lex-first q1 at the maximum, the tie-break
winner, is therefore an orbit minimum, and the first one at the
maximum, above a floor too. The counts and progress still cover every
q1, in closed form (`candidate_counts`), and `_scan` scores every q1.
Fixing image[0] = 1 is not such a relabeling: it would lose the maximum
at k = 5 and 7. The published k = 5..8 girths (8, 8, 10, 10) are attained
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
from .perm import Permutation, ScalingStrategy, circulant, enumerate_k_cycles, identity, one_based, scale_up

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
            + (" (try j_range_filter=False, or --no-j-filter on the command line)" if cfg.j_range_filter else "")
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
# a serial scan passes it instead. (scorer, *args), which `_task` calls
# as scorer(*args, js, floor, lo, hi): (_scan, q1s, cfg), or
# (_levels.batch_bests, tables) with the tables of `_levels.setup`.
_STATE: tuple = ()


def _install(*state) -> None:
    global _STATE
    _STATE = state


def _task(js: tuple[int, ...], floor: int, lo: int, hi: int, state: tuple = ()) -> list[tuple[int, int]]:
    """The range's best (girth, q_idx) per shift of `js`, from the scorer of `state` (default `_STATE`).

    Both scorers give, per shift, the largest girth over the candidates
    (q1, j), q1 in rows lo:hi, with the index of the first q1 at it; the
    level engine gives it when it exceeds `floor`, else girth 0.
    """
    scorer, *args = state or _STATE
    return scorer(*args, js, floor, lo, hi)


def _scan(q1s: list, cfg: SearchConfig, js: tuple[int, ...], floor: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Score every candidate (q1, j), q1 in rows lo:hi, of each shift j of `js` by its definition.

    Returns the range's best (girth, q_idx) per shift: the largest exact
    girth under j with the index of the first q1 attaining it (girth 0
    when every candidate is incompatible). The floor is not used.
    """
    results = []
    for j in js:
        best_g, best_q = 0, 0
        for q_idx, q1 in enumerate(q1s[lo:hi], lo):
            try:
                g = girth_bfs(construct_candidate(q1, j, cfg).matrix()).value
            except IncompatiblePermutations:
                continue
            if g > best_g:
                best_g, best_q = g, q_idx
        results.append((best_g, best_q))
    return results


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

# Searches whose shifts hold at least this many scanned q1 rows run on a
# pool of cfg.worker_count processes, smaller ones in process. A batch of
# shifts is what the pool splits, one range of its rows per worker, and
# every search that reaches the pool has so many rows that both batch
# limits of `_levels.setup` are 1, so its batches are single shifts. The
# rows are the q1 that the search scans: the orbit minima on the level
# engine, every q1 on `_scan`. Measured as search_r3's elapsed time, each
# search in a fresh interpreter, medians of 16 alternating pairs (8 for
# interleaved k = 10) of 1 worker against 2 with the pool forced, on the
# host of the threshold above, whose run-to-run spread is about 20 %:
# interleaved k = 9 (20,352 rows) 0.20 s against 0.23 s, block b = 2,
# k = 5 (18,744) 0.32 against 0.35 s, block k = 10 (18,744) 0.50 against
# 0.47 s, interleaved b = 2, k = 5 (182,400) 0.44 against 0.43 s and
# interleaved k = 10 (182,400) 1.31 against 0.94 s. So every search with
# b*k <= 9 and block b*k = 10 runs in process, and interleaved b*k = 10
# on the pool. No row count separates block k = 10, which gains about
# 5 % (within the spread), from block b = 2, k = 5 (as many rows) and
# interleaved k = 9 (more), which lose; nor interleaved b = 2, k = 5, a
# tie, from k = 10.
_POOL_MIN_ROWS = 100_000


def _girth_ceiling(cfg: SearchConfig) -> int:
    """The proven bound on the girth of every candidate of the search.

    Proof. A compatible candidate is 3-regular and bipartite on 2m
    vertices. By the bipartite Moore bound (`bounds.moore_bipartite`),
    girth g needs at least 2(2^(g/2) - 1) vertices, so 2^(g/2) <= m + 1
    and g <= 2*((m + 1).bit_length() - 1). The Moore bound is written
    out here to keep the import of `bounds` off the search path.

    The cycles of length 2*b*k that p1 = scale_up(q1, k), k disjoint
    (b*k)-cycles, closes with the identity constituent give no smaller
    bound. With x = b*k >= 2 and b >= 1, m + 1 = b*k^2 + 1 <= x^2 + 1
    < 2^(x + 1), so (m + 1).bit_length() - 1 = floor(log2(m + 1)) <= x,
    and the Moore bound is at most 2*b*k.
    """
    return 2 * ((cfg.m + 1).bit_length() - 1)


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
    candidate has a larger girth, shifts are merged in ascending j and
    each returns its first q1 at the maximum, so that (j, q1) is the
    first maximum in tie-break order. A batch may score shifts after
    that one, whose results are not read: when the batch is one exact
    call (`least` shifts), they cost that call little more.

    The shifts are scored in batches of consecutive shifts (the module
    docstring gives the sizes). Each batch is scored against a floor,
    the running best when it starts (the largest girth of the shifts
    before its first), and each of its shifts reports its best only if
    that beats the floor. Proof that the winner is the same. The floor
    is at most each shift's own running best, so a shift whose best
    beats its own running best beats the floor, and reports that best
    with its first q1. Only a strictly larger girth replaces the running
    best, so a shift whose best does not beat its own running best is
    not taken, whatever it reports. On the pool the batch's rows are cut
    into ranges, ascending in q1, all scored at that floor. Proof that
    each shift's result is the same. Each range returns its own first q1
    at the shift's maximum over it when that beats the floor; the first
    range at the largest of these maxima holds the shift's first q1 at
    it, and `max` over the ranges in order keeps the first.

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

    if total >= _LEVEL_MIN_CANDIDATES:
        from . import _levels

        q1s, tables, least, most = _levels.setup(n, cfg.k, cfg.strategy, ceiling)
        state = (_levels.batch_bests, tables)
    else:
        q1s = list(enumerate_k_cycles(n))
        state, least, most = (_scan, q1s, cfg), 1, 1
    rows = len(q1s)
    workers = min(cfg.worker_count, rows) if rows >= _POOL_MIN_ROWS else 1

    best_girth, best_j, best_q = 0, 0, 0
    with contextlib.ExitStack() as stack:
        if workers == 1:
            score = lambda js, floor: _task(js, floor, 0, rows, state)
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            ctx = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, mp_context=ctx, initializer=_install, initargs=state)
            stack.callback(pool.shutdown, cancel_futures=True)
            cuts = [rows * w // workers for w in range(workers + 1)]

            def score(js, floor):
                # the ranges ascend in q1, and max keeps the first range at a shift's maximum
                futures = [pool.submit(_task, js, floor, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
                ranges = [future.result() for future in futures]
                return [max(shift, key=lambda result: result[0]) for shift in zip(*ranges)]

        # batches, and the shifts within them, are merged in scan order,
        # which is the tie-break order
        start, size, stop = 0, least, False
        while not stop and start < len(scanned):
            batch = tuple(scanned[start : start + size])
            for done, (j, (g, q_idx)) in enumerate(zip(batch, score(batch, best_girth)), start + 1):
                if g > best_girth:
                    best_girth, best_j, best_q = g, j, q_idx
                stop = best_girth == ceiling
                if progress is not None:
                    # shift m - j, left unscanned, is covered with j, and
                    # at the ceiling so are the shifts after j
                    progress(total if stop else 2 * done * q1_count, total, best_girth)
                if stop:
                    break
            start += len(batch)
            # one step below the ceiling, any survivor ends the search
            size = least if best_girth + 2 >= ceiling else min(2 * size, most)
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
