"""Level engine of the search: the exact girth of many candidates at once.

`search` makes two calls: `setup` builds a search's q1 rows, the
engine's tables of them and its batch limits, and `batch_bests` returns
each shift's best (girth, row) above a floor on a range of those rows.
The tables are (t, roots, cap, firsts): t is one (2, rows, m) array
whose t[0, i] is the image row of p1 for q1 row i and t[1, i] that of
p1^-1 (`images`), and every function below takes that one array.
`search` does not read the tables, so a change of them, or of the
roots, stays here.

`chunk_girths` extends the non-backtracking walks from a set of roots
level by level, as numpy gathers shared by a chunk of q1 rows, and a
candidate's girth is twice the first level at which two walks from one
root meet. A level's walks are one array, stacked by last label, so
that a level costs a fixed number of numpy calls, and the endpoint
masks are built only for the walks whose last step moved: an I step
keeps the vertex, so the I walks take the masks of the level before.
This reads girth off closed non-backtracking walks, the view of
Fossorier, "Quasi-cyclic LDPC codes from circulant permutation
matrices" (IEEE Trans. IT 50(8), 2004). `chunk_girths` proves the level
test, `root_count` the roots that suffice, and the scaling is
`perm._scale_map`. Each shift has a first meeting level
(`first_level`, a function of j among the tables), below which the net
shift of a short closed walk proves that no walks meet: 3 (no cycle
shorter than 6) under block scaling with k >= 3, 2 (no double edge)
under interleaved scaling with the j filter, and 3 there when j and 2j
are far enough from 0 mod m. Below it the walks are extended without
masks or meeting tests; from it on nothing changes.
`shift_girths` scores one shift exactly. `survivors` drops the
candidates that one root proves to have a girth no larger than a floor,
root 0 alone first at any positive floor and then groups that fill a
chunk, until the rest fit in one chunk, and scores those exactly, up
to the search's girth ceiling (`setup` proves the cap), with 0 for a
girth at or below the floor; so `batch_bests` makes one exact call per
batch, and once the survivors fit in a chunk, no later group walks
them to the floor first. `relabeled` turns the candidates of several
shifts into candidates of shift 1, by the relabeling x -> x * j^-1
mod m, so that a batch is scored as one shift of stacked rows. Each of
them proves its claim in its docstring.

`cycle_rows` and `images` build the q1 rows and the table t that the
engine reads (`cycle_rows` builds `perm.enumerate_k_cycles`' rows the
same way, in numpy), and `orbit_minima` keeps one q1 row of each class
of q1 that give isomorphic graphs at every shift (`search` proves the
relabelings and that the winner is kept), with the inverse of each
kept row, which it needs for the relabeling phi and `images` scales
into p1^-1; so a search inverts its q1 rows once. Under block scaling
it tests every row against its 2n relabelings in one pass over the
row's step sequence q1(x) - x mod n, which holds column 0 of each of
them, and compares the full rows only for the relabelings that tie
there (its docstring proves this). This module loads numpy; `search`
imports it only for searches large enough to repay that
(`search._LEVEL_MIN_CANDIDATES`).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .perm import ScalingStrategy, _scale_map

# (q1 row, root) pairs per `chunk_girths` call
CHUNK_ROOTS = 4096


def cycle_rows(n: int):
    """Image rows of the (n-1)! single n-cycles, in `perm.enumerate_k_cycles`' order.

    A uint8 array of shape ((n-1)!, n) for n <= 256, built as
    `perm.enumerate_k_cycles` builds its rows, in numpy: each arrangement
    s of 1..n-1 is the cycle 0 -> s[0] -> ... -> s[n-2] -> 0, so the
    rows are scattered from those cycles, then sorted lexicographically.
    The arrangements come from `itertools.permutations` as one bytes
    object, which is built only after the cycles' array is allocated:
    rows that cannot fit raise OverflowError (beyond numpy's index
    range) or MemoryError before any arrangement is generated. The
    scatter goes one cycle position at a time, as in `_inverse_rows`,
    through one index array of one entry per row, updated in place, and
    the cycles are freed before the sort: at n = 10 that peaks near
    13 MB, where a (rows, n) int64 index would take 29 MB.
    """
    count = math.factorial(n - 1)
    if count * n > np.iinfo(np.intp).max:
        # numpy would refuse the shape with a ValueError
        raise OverflowError(f"{n - 1}! * {n} bytes of {n}-point q1 rows exceed numpy's index range")
    cycles = np.zeros((count, n), np.uint8)
    tails = bytes(itertools.chain.from_iterable(itertools.permutations(range(1, n))))
    cycles[:, 1:] = np.frombuffer(tails, np.uint8).reshape(count, n - 1)
    del tails
    rows = np.empty_like(cycles)
    # rows[i, cycles[i, c]] = cycles[i, c + 1 mod n], through the flat
    # index of row i's start plus cycles[i, c], updated in place
    flat, index = rows.reshape(-1), np.arange(0, count * n, n)
    for c in range(n):
        index += cycles[:, c]
        flat[index] = cycles[:, c + 1 - n]
        index -= cycles[:, c]
    # the sort's index and copy take the place of these
    del cycles, index
    # lexsort sorts by its last key first
    return rows[np.lexsort(rows.T[::-1])]


def _inverse_rows(rows):
    """The inverse of each permutation row of `rows`, C-ordered, in its dtype.

    Row r of the result maps rows[r, x] back to x. It is scattered one
    column x at a time into the flat result, so no index array larger
    than one entry per row is built (sorting each row would build a
    (rows, n) int64 one).
    """
    count, n = rows.shape
    inverse = np.empty((count, n), rows.dtype)
    flat, starts = inverse.reshape(-1), np.arange(count) * n
    for x in range(n):
        flat[starts + rows[:, x]] = x
    return inverse


def _wrap(v, n: int):
    """v mod n, in place, for unsigned v < 2n without `%`: v - n wraps past v when v < n."""
    return np.minimum(v, v - v.dtype.type(n), out=v)


def _not_less(pairs: int, columns, column):
    """Mask of the pairs whose image is not lexicographically less than their row.

    column(i, tied) gives entry i of the rows and of the images of the
    pairs `tied`, for each i of `columns` in order; the entries before
    the first of `columns` must tie. Each column is read only for the
    pairs tied so far, so the work shrinks quickly.
    """
    kept = np.ones(pairs, bool)
    tied = np.arange(pairs)
    for i in columns:
        row, image = column(i, tied)
        kept[tied[image < row]] = False
        tied = tied[image == row]
        if not len(tied):
            break
    return kept


def _inverse_from_phi(phi):
    """The rows q^-1, C-ordered, of the columns phi[:, r] = phi(q_r) = rho q_r^-1 rho.

    phi(q)(x) = n-1 - q^-1(n-1-x), so q^-1(y) = n-1 - phi(q)(n-1-y).
    """
    return np.ascontiguousarray(len(phi) - 1 - phi[::-1].T)


def orbit_minima(rows, strategy: ScalingStrategy):
    """(q_rows, inverse_rows): the rows of `cycle_rows` least in their orbit (lexicographically), in order, and their inverses.

    The orbit of q is its images under the relabelings that keep the
    graph of (q, j) for every j (`search` proves them): q and
    phi(q) = rho q^-1 rho, rho(i) = n-1-i, under either scaling, and
    under block scaling also r_c q r_c^-1 and r_c phi(q) r_c^-1 for the
    rotations r_c(i) = i + c mod n. Interleaved scaling compares each
    row with its phi(q), a column at a time (`_not_less`).

    Block scaling reads the 2n images off q's step sequence
    d_q(x) = q(x) - x mod n, which takes the values 1..n-1 on a single
    n-cycle. Lemma. (a) r_c q r_c^-1 (i) = d_q(i - c) + i mod n, and
    (b) d_phi(q)(x) = d_q(q^-1(n-1-x)), so d_phi(q) permutes d_q.
    Proof. (a) r_c q r_c^-1 (i) = q(i - c) + c = d_q(i - c) + (i - c)
    + c. (b) With y = q^-1(n-1-x), phi(q)(x) = n-1-y, so
    phi(q)(x) - x = (n-1-x) - y = q(y) - y. So column 0 of
    r_c q r_c^-1 is d_q(-c), and that of r_c phi(q) r_c^-1 is
    d_phi(q)(-c), a value of d_q too; every value of d_q is some
    image's column 0, q's own (c = 0) being q(0) = d_q(0). Hence q is
    least in its orbit only if q(0) = min d_q, which one pass over the
    columns tests for every row. The images that tie with q in column 0
    are, for each p with d_q(p) = q(0), r_c q r_c^-1 at c = -p (p != 0;
    p = 0 is q itself) and r_c phi(q) r_c^-1 at -c = n-1-q(p), whose
    column 0 is d_q(q^-1(q(p))) = d_q(p). By (a), the image with step
    sequence D (d_q or d_phi(q)) at offset o = -c holds D(i + o) + i
    mod n in column i. phi(q) is built only for the rows that pass, and
    their tied images are compared with them from column 1 on
    (`_not_less`); a row is kept when no image is less.

    phi needs q^-1 under either scaling, so the inverse rows are built
    here, for every row (interleaved) or for the rows that pass
    (block), and read back off phi(q) for the rows kept
    (`_inverse_from_phi`): inverse_rows[r] maps q_rows[r, x] back to x.
    `images` scales them into p1^-1. Neither path keeps a table of
    inverses while it compares; block scaling reads phi(q) back from
    the step table that it keeps.
    """
    count, n = rows.shape
    dtype = np.uint8 if 2 * n <= 256 else np.uint16
    # cols[i] holds entry i of every row
    cols = np.ascontiguousarray(rows.T, dtype)
    if strategy is ScalingStrategy.INTERLEAVED:
        phi = np.ascontiguousarray(n - 1 - _inverse_rows(rows)[:, ::-1].T, dtype)
        kept = _not_less(count, range(n), lambda i, tied: (cols[i, tied], phi[i, tied]))
        return rows[kept], _inverse_from_phi(phi[:, kept])
    # the least step of each row, d_q(x) = q(x) + (n - x) mod n
    least, step = cols[0].copy(), np.empty(count, dtype)
    for x in range(1, n):
        np.minimum(least, _wrap(np.add(cols[x], n - x, out=step), n), out=least)
    passed = np.flatnonzero(least == cols[0])
    # q[x] and phi[x] hold entry x of the passing rows' q and phi(q)
    q, width = cols.take(passed, axis=1), 2 * len(passed)
    # the whole-table arrays go before the pair arrays are built, and
    # these before the pairs are compared, to keep the peak memory low
    del cols, least, step
    phi = np.ascontiguousarray(n - 1 - _inverse_rows(q.T)[:, ::-1].T)
    # steps[x, s] is entry x of the step sequence of q (s < width / 2)
    # or of phi(q) (s >= width / 2), and flat[x * width + s] is entry
    # x mod n for x < 2n, so an offset plus a column needs no `% n`
    steps = _wrap(np.concatenate((q, phi), axis=1) + np.arange(n, 0, -1, dtype=dtype)[:, None], n)
    flat = np.concatenate((steps, steps)).reshape(-1)
    p, row = np.nonzero(steps[:, : len(passed)] == q[0])
    moved = p > 0
    # the tied images of row `owner`, from the entry `start` of flat on:
    # (q, p) for p != 0, and (phi(q), n-1-q(p)) for every p
    owner = np.concatenate((row[moved], row))
    offset = n - 1 - q[p, row].astype(np.intp)
    start = np.concatenate((p[moved] * width + row[moved], offset * width + (len(passed) + row)))
    del phi, steps, p, row, moved, offset

    def column(i, tied):
        index = start[tied]
        index += i * width
        return q[i, owner[tied]], _wrap(flat.take(index) + dtype(i), n)

    kept = np.ones(len(passed), bool)
    kept[owner[~_not_less(len(owner), range(1, n), column)]] = False
    # the first n rows of flat are the steps, whose columns from width / 2
    # on give phi(q)(x) = step + x mod n
    steps = flat[: n * width].reshape(n, width)[:, len(passed) :]
    phi = _wrap(steps[:, kept] + np.arange(n, dtype=dtype)[:, None], n)
    return rows[passed[kept]], _inverse_from_phi(phi)


def images(q_rows, inverse_rows, k: int, strategy: ScalingStrategy):
    """The table t of p1 = scale_up(q1, k, strategy) and p1^-1, a row of each per q1.

    `q_rows` holds the q1 images, one row each, and `inverse_rows` the
    images of their inverses in the same order (arrays such as
    `orbit_minima`'s pair, or lists of tuples). Returns a numpy array t
    of shape (2, len(q_rows), m), uint8 while m <= 256, else uint16:
    t[0, i] is the image row of p1 for q_rows[i], and t[1, i] that of
    p1^-1. The rows apply `perm._scale_map`; since scale_up(q1)^-1 =
    scale_up(q1^-1), t[1] scales the inverse q1 rows. Each half is one
    `take` into t, which is C-ordered, so that a slice t[:, lo:hi] of
    rows is a view whose halves are contiguous and `chunk_girths` can
    gather on it without a copy; both halves are scaled in place (the
    factor only under block scaling, where it is k), so that no further
    (len(q_rows), m) temporary is built.
    """
    n = len(q_rows[0])
    dtype = np.uint8 if n * k <= 256 else np.uint16
    src, offset, factor = _scale_map(n, k, strategy)
    t = np.empty((2, len(q_rows), n * k), dtype)
    for half, rows in zip(t, (q_rows, inverse_rows)):
        # every index is in range; under the default mode, `take` would
        # gather into a temporary and copy that into `out`
        np.asarray(rows, dtype).take(src, axis=1, out=half, mode="clip")
    if factor != 1:
        t *= factor
    t += np.array(offset, dtype)
    return t


def root_count(n: int, k: int, strategy: ScalingStrategy) -> int:
    """Roots per candidate, the left vertices 0..count-1 that the engine walks from.

    They must meet every shortest cycle and double edge of each
    candidate (scale_up(q1, k, strategy), I, C_j), q1 on n points. Block
    scaling takes all m = n*k. Interleaved scaling takes n: there p1
    maps i + t*n to q1[i] + t*n, so x -> x + n mod m (on both sides)
    commutes with p1, I and C_j and is an automorphism of the graph. It
    moves any shortest cycle, or double edge, through a left vertex x
    onto one through x mod n.
    """
    return n if strategy is ScalingStrategy.INTERLEAVED else n * k


def first_level(n: int, k: int, strategy: ScalingStrategy, j: int) -> int:
    """The first meeting level of shift j, m = n*k: below it no walks of `chunk_girths` meet.

    It is a level L such that every candidate
    (scale_up(q1, k, strategy), I, C_j), q1 a single n-cycle and j
    coprime to m, has no double edge when L >= 2 and no cycle of length
    4 when L >= 3. Then two walks from one root never meet below level
    L, since a meeting at level l shows a cycle of length <= 2l, or a
    double edge at l = 1 (`chunk_girths`). Write dist(x) for the
    distance of x from 0 mod m. The levels are: block scaling, 2, and 3
    for k >= 3; interleaved scaling, 1 when dist(j) < n, else 2, and 3
    when also n >= 3, dist(j) > 2(n-1) and dist(2j) > 2(n-1). The j
    filter (j > n) always gives interleaved level 2 or more.

    Proof. A double edge or 4-cycle is a closed non-backtracking walk of
    length 2 or 4, whose steps alternate sides. A C_j step adds j from
    the left side and subtracts it from the right. Consecutive edges of
    a cycle, also the last and the first, differ in label, so such a
    walk holds at most two C_j steps, and two of them start on the same
    side and have the same sign. With no C_j step it alternates
    p1 and I, and closes only on a fixed point or a 2-cycle of p1, whose
    cycles have length n (n >= 2 always, n >= 3 for a 4-cycle). Block
    scaling: p1(u*k + o) = q1(u)*k + o and I keep x mod k, and j mod k =
    c has gcd(c, k) = 1, so one C_j step (net +-c mod k) never closes,
    and two of one sign (+-2c) close only when k | 2, i.e. k = 2.
    Interleaved scaling: p1 moves x = i + t*n to q1(i) + t*n, by
    q1(i) - i in [-(n-1), n-1], and a walk of length <= 4 holds at most
    two p1 steps, one if it is a double edge (I and C_j alone close only
    when j = 0). So a closure with one C_j step needs dist(j) <= 2(n-1),
    or dist(j) <= n-1 for a double edge, and one with two needs
    dist(2j) <= 2(n-1). This is the net shift of a short closed walk
    (Fossorier, 2004; the voltage graphs of Gross and Tucker, "Topological
    Graph Theory", 1987, ch. 2).
    """
    if strategy is ScalingStrategy.BLOCK:
        return 3 if k >= 3 else 2
    m = n * k
    near = min(j % m, -j % m), min(2 * j % m, -2 * j % m)
    return 1 if near[0] < n else 3 if n >= 3 and min(near) > 2 * (n - 1) else 2


def setup(n: int, k: int, strategy: ScalingStrategy, ceiling: int):
    """(q_rows, tables, least, most) of a search: its q1 rows, the tables that `batch_bests` reads, and two batch limits.

    The q1 rows are the `orbit_minima` of `cycle_rows(n)`. The tables
    are (t, roots, cap, firsts): the `images` table of those rows, the
    `root_count`, the level cap = ceiling // 2 - 1 of every exact call,
    where `ceiling` is a proven bound on the girth of every candidate of
    the search, and `firsts`, which gives the `first_level` of shift j
    as firsts(j). The tables take the inverse rows that `orbit_minima`
    returns with the q1 rows, so that the rows are inverted once.
    `least` is the number of shifts whose candidates, from every root,
    fit one chunk, or 1 if one shift's do not: a batch of that many is
    then one exact call whatever its floor (above a positive floor,
    `survivors` walks it from root 0 alone first, and no other group).
    Past `most` shifts, one root of a batch fills a chunk, so a larger
    batch saves no call.

    Proof that the cap keeps the exact calls exact. A candidate whose
    walks from the roots do not meet by level cap has girth > 2 * cap
    (`chunk_girths`), and the ceiling proves girth <= ceiling. Girths
    are even, so its girth is 2 * (ceiling // 2) = 2 * cap + 2, the
    value that `chunk_girths` gives it. The other candidates meet by
    level cap and get their girth, or 0 for a double edge, which meets
    at level 1 (a cap below 1 stops no walk).
    """
    q_rows, inverse_rows = orbit_minima(cycle_rows(n), strategy)
    roots = root_count(n, k, strategy)
    firsts = functools.partial(first_level, n, k, strategy)
    tables = images(q_rows, inverse_rows, k, strategy), roots, ceiling // 2 - 1, firsts
    return q_rows, tables, max(1, CHUNK_ROOTS // (len(q_rows) * roots)), max(1, CHUNK_ROOTS // len(q_rows))


def relabeled(t, js):
    """The table at shift 1 of the candidates (t[:, i], I, C_j), j in `js`: shift-major, then in the order of t's rows.

    Returns a C-ordered table T of shape (2, len(js) * rows, m), rows =
    t.shape[1], in t's dtype: candidate c = s * rows + i is (t[:, i],
    js[s]) relabeled by x -> a*x mod m on both sides, a = js[s]^-1 mod
    m, so T[h, c, x] = a * t[h, i, j*x mod m] mod m in either half h.
    Every j must be coprime to m. Candidate c is row c % rows of shift
    js[c // rows], so ascending c is the tie-break order (j, then q1).

    Proof that (T[0, c], I, C_1) is isomorphic to (p1, I, C_j), p1 =
    t[0, i], and that T[1, c] is the inverse of T[0, c]. Multiplying by
    the unit a is a bijection of Z_m, and it maps the edge x - p1(x) to
    x' - a*p1(j*x'), x' = a*x, the edge x - x to x' - x', and x - x + j
    to x' - x' + 1. So girth and double edges (incompatibility) are
    kept, and the inverse of T[0, c], which maps a*p1(j*x') to x', is
    y' -> a*p1^-1(j*y') at y' = a*p1(j*x'), i.e. T[1, c] built from
    t[1, i] = p1^-1. This is the multiplier isomorphism of circulants
    (Adam, J. Combin. Theory 2, 1967) on the circulant-plus-permutation
    view.

    The roots of `root_count` still suffice. Block scaling
    takes all m, which a bijection keeps. Under interleaved scaling
    the automorphism x -> x + n becomes x' -> x' + a*n, and since a is
    a unit, a*n generates the same subgroup n*Z_m: the roots 0..n-1
    still meet every orbit of it, hence every shortest cycle and double
    edge.
    """
    rows, m = t.shape[1:]
    x = np.arange(m)
    out = np.empty((2, len(js), rows, m), t.dtype)
    for s, j in enumerate(js):
        scale = (x * pow(j, -1, m) % m).astype(t.dtype)
        scale.take(t.take(x * j % m, axis=2), out=out[:, s])
    return out.reshape(2, -1, m)


def chunk_girths(t, j: int, roots, cap: int | None = None, first: int = 1):
    """Girth of each candidate (t[:, i], I, C_j) of a chunk t of `images`' table; 0 if incompatible.

    Level L extends, from every root, the non-backtracking walks of
    length L: a step follows a label (p1, I or C_j) other than the one
    of the step before, so every candidate has the same 3 * 2^(L-1)
    label sequences. The walks are kept in one array of shape (3,
    walks, candidates, roots), indexed by last label in the order (p1,
    C_j, I): a p1 step gathers on t[0] (left to right) or t[1] (right
    to left) from the C_j and I walks, which are one contiguous slice; a
    C_j step adds or subtracts j mod m on the p1 and I walks; an I step
    leaves the vertex as it is, so it copies the p1 and C_j walks.
    A 64-bit mask per 64 vertices and per (candidate, root) records the
    vertices that the p1 and C_j walks end at, so each level builds
    masks over two thirds of its walks.

    A candidate is done at the first level where two walks from one
    root end at the same vertex, i.e. where a root's masks, those of
    its p1 and C_j walks ORed with those of its I walks, hold fewer
    bits than it has walks. The I walks' mask at level L + 1 is the
    p1 and C_j walks' mask of level L, because an I step keeps the
    vertex number. At level 1 a meeting is a double edge, so the
    candidate is incompatible; at level L > 1 its girth is 2L. Proof.
    If the two walks' edges formed a forest, both walks would be paths
    in it (a non-backtracking walk in a forest is a path) from the root
    to the same vertex, hence equal; so their at most 2L edges hold a
    cycle of length <= 2L. Conversely, if the girth is 2s, the walks
    that go round a shortest cycle both ways from a root on it meet
    after s steps. So the first level with a meeting, over roots that
    meet every shortest cycle, is half the girth.

    With a `cap`, the walks stop after level `cap`, and a candidate
    whose walks do not meet by then gets 2 * cap + 2. So over roots
    that meet every shortest cycle and double edge the result is
    min(girth, 2 * cap + 2); over any roots, a result r <= 2 * cap
    proves girth <= r, and incompatibility when r = 0.

    `first`, at most the `first_level` of every candidate's shift, is
    the first level tested: below it no two walks from one root meet, so
    those levels only extend the walks, and masks are built from the
    level before it on, whose masks are the first level's I walks'
    masks. It is clamped to the cap, where the walks stop, so the
    results are those at first = 1.
    """
    _, count, m = t.shape
    j %= m
    if cap is not None:
        first = min(first, cap)
    x = np.arange(m, dtype=t.dtype)
    fwd, back = np.concatenate((x[j:], x[:j])), np.concatenate((x[m - j :], x[: m - j]))
    one = np.uint64(1)
    # a shift by 64 or more gives 0, and so does a wrapped (negative) one
    lows = range(0, m, 64)

    def masks(walks):
        """Masks of shape (words, candidates, roots) of the vertices that `walks` end at."""
        walks = walks.reshape(-1, *walks.shape[-2:])
        out = np.empty((len(lows), *walks.shape[1:]), np.uint64)
        for word, low in zip(out, lows):
            np.bitwise_or.reduce(one << (walks - low if low else walks), axis=0, out=word)
        return out

    # w[label, walk, candidate, root], labels (p1, C_j, I)
    w = np.empty((3, 1, count, len(roots)), t.dtype)
    t[0].take(roots, axis=1, out=w[0, 0])
    w[1, 0], w[2, 0] = fwd[roots], roots
    # the I walks of level 1 end at the roots, whatever the candidate;
    # a level builds its masks when it or the next one is tested
    held = masks(w[2, :, :1]) if first <= 1 else None
    mask = masks(w[:2]) if first <= 2 else None
    girths = np.zeros(count, np.int32)
    alive = np.arange(count)
    # row starts in the flat halves of t, whose rows are never dropped
    starts = alive[:, None] * m
    flat = t.reshape(2, -1)
    level = 1
    while True:
        # first <= cap, so the cap's level is tested
        if level >= first:
            counts = np.bitwise_count(mask | held)
            # one word counts at most 64 bits; several are summed in int32,
            # since from level 8 on a root has 384 walks or more
            distinct = counts[0] if len(counts) == 1 else counts.sum(axis=0, dtype=np.int32)
            met = distinct.min(axis=1) < 3 << (level - 1)
            done = np.count_nonzero(met)
            if done and level > 1:
                girths[alive[met]] = 2 * level
            if done == len(met):
                return girths
            if level == cap:
                girths[alive[~met]] = 2 * cap + 2
                return girths
            if done:
                keep = ~met
                alive, starts = alive[keep], starts[keep]
                w, mask = np.compress(keep, w, axis=2), np.compress(keep, mask, axis=1)
        # after an even level the walks sit on left vertices
        image, shift = (flat[0], fwd) if level % 2 == 0 else (flat[1], back)
        walks = w.shape[1]
        new = np.empty((3, 2 * walks, *w.shape[2:]), t.dtype)
        index = w[1:].reshape(new.shape[1:]) + starts
        # every index is in range; under the default mode, `take` would
        # gather into a temporary and copy that into `out`
        image.take(index, out=new[0], mode="clip")
        shift.take(w[::2], out=new[1].reshape(w[::2].shape), mode="clip")
        new[2] = w[:2].reshape(new.shape[1:])
        level += 1
        w, held, mask = new, mask, masks(new[:2]) if level + 1 >= first else None


def _girths(t, j: int, rows, roots, cap: int | None = None, first: int = 1):
    """`chunk_girths` of the candidates t[:, rows] from `roots`, in chunks of about `CHUNK_ROOTS` (row, root) pairs.

    `rows` ascends without repeats, so when it holds every row of t the
    chunks are views rather than copies; otherwise each chunk is one
    `take`, which leaves it C-ordered (indexing t[:, c] would not).
    """
    step = max(1, CHUNK_ROOTS // len(roots))
    whole, starts = len(rows) == t.shape[1], range(0, len(rows), step)
    chunks = (t[:, i : i + step] if whole else t.take(rows[i : i + step], axis=1) for i in starts)
    girths = [chunk_girths(c, j, roots, cap, first) for c in chunks]
    return np.concatenate(girths) if girths else np.zeros(0, np.int32)


def shift_girths(t, j: int, roots: int, rows=None, cap: int | None = None, first: int = 1):
    """Girth of each candidate (t[:, i], I, C_j), i in `rows` (default every row of t); 0 if incompatible.

    t is a table as `images` builds it, or a range of its rows. Walks
    start at the left vertices 0..roots-1, which must meet every
    shortest cycle and double edge (`root_count` proves which do). With
    a `cap`, a girth above 2 * cap reads 2 * cap + 2 (`chunk_girths`);
    `setup` proves which cap stays exact. The walks are tested from
    level `first` on (`chunk_girths`), which `first_level` proves.
    """
    rows = np.arange(t.shape[1]) if rows is None else rows
    return _girths(t, j, rows, np.arange(roots), cap, first)


def survivors(t, j: int, roots: int, floor: int, cap: int | None = None, first: int = 1):
    """(rows, girths): candidates (t[:, i], I, C_j) of a table t, among them every one whose girth exceeds `floor`.

    `rows` ascends, and girths[r] is the girth of candidate rows[r] if
    that exceeds the floor, else 0. Above a positive floor, a cascade
    first drops candidates: the roots 0..roots-1 are taken in groups
    that at least double in size (0, then 1-2, then 3-6, ...). The
    first group is root 0 alone, whatever the number of candidates;
    each later one also fills at least one chunk of `CHUNK_ROOTS` pairs
    with the candidates still alive, since a smaller call costs about
    as much. Each group walks those candidates up to level
    depth = max(1, floor // 2), and a candidate is dropped as soon as
    the walks from one root meet. Proof. A meeting at level 1 is a
    double edge, and one at a level 1 < L <= depth shows
    girth <= 2L <= floor (`chunk_girths`); either way the candidate
    does not beat the floor. Root 0 goes alone because, below the best
    girth found so far, most candidates close a short cycle through it
    already (at interleaved k = 7, floor 8, it drops 383 of 384 rows
    at j = 9): the prune-on-a-short-cycle rule of McKay, Myrvold and
    Nadon, "Fast backtracking principles applied to find new cages"
    (SODA 1998). So even candidates that would fit one exact call with
    all their roots are first walked from root 0 only, and the exact
    call then walks every root of the few left.

    After root 0, the cascade stops once the candidates alive, times
    all the roots, fit in one chunk, or when every root is walked; the
    candidates alive then are scored exactly from every root
    (`shift_girths`, which stops at level `cap`; `setup` proves its cap
    exact), in one call when they fit, and their girths at or below the
    floor are set to 0. Exact, since every candidate that beats the
    floor is still alive, and its girth, from roots that meet every
    shortest cycle (`root_count`), is the same whichever call computes
    it. So the last groups are not walked to the depth and the
    survivors walked again from level 1: a candidate that the last
    group would drop meets in the exact call at the same level. At
    floor 0 there is no cascade, since it would drop only the
    incompatible candidates, which score 0. Every call tests the walks
    from level `first` on (`chunk_girths`), which `first_level` proves.
    """
    depth = max(1, floor // 2)
    alive = np.arange(t.shape[1])
    if floor:
        alive = alive[_girths(t, j, alive, np.arange(1), depth, first) > 2 * depth]
    start, size = 1, 2
    while floor and start < roots and len(alive) * roots > CHUNK_ROOTS:
        size = max(size, CHUNK_ROOTS // len(alive))
        group = np.arange(start, min(roots, start + size))
        alive = alive[_girths(t, j, alive, group, depth, first) > 2 * depth]
        start, size = start + size, 2 * size
    girths = shift_girths(t, j, roots, rows=alive, cap=cap, first=first)
    girths[girths <= floor] = 0
    return alive, girths


def batch_bests(tables, js, floor: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Best (girth, row) of each shift j in `js` over the candidates (t[:, i], I, C_j), i in lo:hi, above `floor`.

    `tables` are `setup`'s (t, roots, cap, firsts), the walks start at
    the roots, the exact call stops at the cap, and every call tests the
    walks from the least first level of the batch's shifts on, which
    holds for the relabeled candidates of every shift, since they are
    isomorphic to those of their shift. The batch is scored
    into one table of girths, a row per shift and a column per
    candidate of the range, that reads 0 at or
    below the floor: the girths that `survivors` returns, put at their
    rows. A shift's best is the maximum of its row, at the row's first
    column that holds it, counted as a row of t from 0; so a shift with
    no candidate above the floor gives girth 0. Several shifts are
    scored as one, at shift 1 on the rows of `relabeled`, whose stacked
    candidates fill the table row by row; one shift is scored on the
    rows t[:, lo:hi] as they are. When the batch's candidates, from
    every root, fit one chunk (up to `setup`'s `least` shifts), the
    batch is one exact call at any floor, after one call from root 0
    alone above a positive floor.
    """
    t, roots, cap, firsts = tables
    # t is C-ordered, so t[:, lo:hi] is a view
    t, j = (relabeled(t[:, lo:hi], js), 1) if len(js) > 1 else (t[:, lo:hi], js[0])
    girths = np.zeros((len(js), hi - lo), np.int32)
    girths.put(*survivors(t, j, roots, floor, cap, min(map(firsts, js))))
    return list(zip(girths.max(axis=1).tolist(), (girths.argmax(axis=1) + lo).tolist()))
