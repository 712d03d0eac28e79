"""Level engine of the search: the exact girth of many candidates at once.

For one shift j, `shift_girths` scores candidates (q1, j) of a search.
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
test; the roots that suffice are the search's choice
(`search._root_count` proves them) and the scaling is `perm._scale_map`.
`survivors` drops, before `shift_girths` runs, the candidates that one
root proves to have a girth no larger than a floor.

`cycle_rows` and `images` build the q1 and p1 rows that the engine
reads (`cycle_rows` builds `perm.enumerate_k_cycles`' rows the same way,
in numpy), and `orbit_minima` keeps one q1 row of each class of q1 that
give isomorphic graphs at every shift (`search` proves the relabelings
and that the winner is kept). This module loads numpy; `search`
imports it only for searches large enough to repay that
(`search._LEVEL_MIN_CANDIDATES`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .perm import ScalingStrategy, _scale_map

# (q1 row, root) pairs per `chunk_girths` call
CHUNK_ROOTS = 4096


class Scratch:
    """Work arrays that `chunk_girths` reuses from level to level.

    The level loop's two largest temporaries, the 64-bit vertex bits
    before they are OR-reduced into masks and the gather indices, take
    8 bytes per walk. Allocated afresh at every level, whether the
    allocator handed them back to the system and faulted them in again
    depended on what the process had allocated before: repeated k = 7
    block searches took either about 21,000 page faults each, with a
    sixth of their time in the kernel, or none. Here one flat buffer per
    dtype grows to the largest size asked for and is kept, which leaves
    about 140 faults per search in either case.
    """

    def __init__(self):
        self._flat: dict = {}

    def array(self, dtype, shape: tuple[int, ...]):
        """An uninitialised array of `shape`, a view of the dtype's buffer."""
        size = math.prod(shape)
        flat = self._flat.get(dtype)
        if flat is None or flat.size < size:
            flat = self._flat[dtype] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def cycle_rows(n: int):
    """Image rows of the (n-1)! single n-cycles, in `perm.enumerate_k_cycles`' order.

    A uint8 array of shape ((n-1)!, n) for n <= 256, built as
    `perm.enumerate_k_cycles` builds its rows, in numpy: each arrangement
    s of 1..n-1 is the cycle 0 -> s[0] -> ... -> s[n-2] -> 0, so the
    rows are scattered from those cycles, then sorted lexicographically.
    """
    count = math.factorial(n - 1)
    tail = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(1, n))), np.uint8, count * (n - 1)
    )
    cycles = np.zeros((count, n), np.uint8)
    cycles[:, 1:] = tail.reshape(count, n - 1)
    rows = np.empty_like(cycles)
    rows[np.arange(count)[:, None], cycles] = np.roll(cycles, -1, axis=1)
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


def orbit_minima(rows, strategy: ScalingStrategy):
    """The rows of `cycle_rows` that are lexicographically least in their orbit, in order.

    The orbit of q is its images under the relabelings that keep the
    graph of (q, j) for every j (`search` proves them): q and
    phi(q) = rho q^-1 rho, rho(i) = n-1-i, under either scaling, and
    under block scaling also r q r^-1 and r phi(q) r^-1 for the
    rotations r(i) = i + c mod n. The image rows are compared with the
    rows a column at a time, each map only on the rows that every map
    before it kept and each column only on the rows tied so far, so the
    work shrinks quickly and no (rows, n) index array is built.
    """
    count, n = rows.shape
    # cols[i] and phi[i] hold entry i of every row's q and phi(q)
    cols = np.ascontiguousarray(rows.T)
    phi = np.ascontiguousarray(n - 1 - _inverse_rows(rows)[:, ::-1].T)
    kept = np.ones(count, bool)
    for c in range(n) if strategy is ScalingStrategy.BLOCK else range(1):
        # rotate[v] = v + c mod n; column i of r q r^-1 is rotate[q[i - c]]
        rotate = np.roll(np.arange(n, dtype=rows.dtype), -c)
        for source in (cols, phi) if c else (phi,):
            tied = np.flatnonzero(kept)
            for i in range(n):
                row, image = cols[i, tied], rotate.take(source[i - c, tied])
                kept[tied[image < row]] = False
                tied = tied[image == row]
                if not len(tied):
                    break
    return rows[kept]


def images(q_rows, k: int, strategy: ScalingStrategy):
    """Images of p1 = scale_up(q1, k, strategy) and of p1^-1, one row per q1.

    `q_rows` holds the q1 images, one row each (an array such as
    `cycle_rows`' or a list of tuples). Returns numpy arrays of shape
    (len(q_rows), m), uint8 while m <= 256, else uint16. The rows apply
    `perm._scale_map`; since scale_up(q1)^-1 = scale_up(q1^-1), the
    inverse rows scale the inverse q1 rows (`_inverse_rows`). The arrays
    are C-ordered (as `take` leaves them, unlike indexing by `src`), so
    that a slice of rows is contiguous and `chunk_girths` can gather on
    it without a copy.
    """
    n = len(q_rows[0])
    dtype = np.uint8 if n * k <= 256 else np.uint16
    q = np.asarray(q_rows, dtype)
    src, offset, factor = _scale_map(n, k, strategy)
    offset = np.array(offset, dtype)
    return tuple(rows.take(src, axis=1) * factor + offset for rows in (q, _inverse_rows(q)))


def chunk_girths(p, pinv, j: int, roots, scratch: Scratch, cap: int | None = None):
    """Girth of each candidate (p[i], I, C_j) of one chunk; 0 if incompatible.

    Level L extends, from every root, the non-backtracking walks of
    length L: a step follows a label (p1, I or C_j) other than the one
    of the step before, so every candidate has the same 3 * 2^(L-1)
    label sequences. The walks are kept in one array of shape (3,
    walks, candidates, roots), indexed by last label in the order (p1,
    C_j, I): a p1 step gathers on p (left to right) or pinv (right to
    left) from the C_j and I walks, which are one contiguous slice; a
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
    """
    count, m = p.shape
    j %= m
    x = np.arange(m, dtype=p.dtype)
    fwd, back = np.concatenate((x[j:], x[:j])), np.concatenate((x[m - j :], x[: m - j]))
    one = np.uint64(1)
    # a shift by 64 or more gives 0, and so does a wrapped (negative) one
    lows = range(0, m, 64)

    def masks(walks):
        """Masks of shape (words, candidates, roots) of the vertices that `walks` end at."""
        walks = walks.reshape(-1, *walks.shape[-2:])
        bits = scratch.array(np.uint64, walks.shape)
        out = np.empty((len(lows), *walks.shape[1:]), np.uint64)
        for word, low in zip(out, lows):
            np.bitwise_or.reduce(np.left_shift(one, walks - low if low else walks, out=bits), axis=0, out=word)
        return out

    # w[label, walk, candidate, root], labels (p1, C_j, I)
    w = np.empty((3, 1, count, len(roots)), p.dtype)
    p.take(roots, axis=1, out=w[0, 0])
    w[1, 0], w[2, 0] = fwd[roots], roots
    # the I walks of level 1 end at the roots, whatever the candidate
    held, mask = masks(w[2, :, :1]), masks(w[:2])
    girths = np.zeros(count, np.int32)
    alive = np.arange(count)
    # row starts in the flat p and pinv, whose rows are never dropped
    starts = alive[:, None] * m
    flat_p, flat_pinv = p.ravel(), pinv.ravel()
    level = 1
    while True:
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
        image, shift = (flat_p, fwd) if level % 2 == 0 else (flat_pinv, back)
        walks = w.shape[1]
        new = np.empty((3, 2 * walks, *w.shape[2:]), p.dtype)
        index = np.add(w[1:].reshape(new.shape[1:]), starts, out=scratch.array(np.intp, new.shape[1:]))
        # every index is in range; under the default mode, `take` would
        # gather into a temporary and copy that into `out`
        image.take(index, out=new[0], mode="clip")
        shift.take(w[::2], out=new[1].reshape(w[::2].shape), mode="clip")
        new[2] = w[:2].reshape(new.shape[1:])
        w, held, mask = new, mask, masks(new[:2])
        level += 1


def _girths(p, pinv, j: int, rows, roots, scratch: Scratch, cap: int | None = None):
    """`chunk_girths` of the candidates p[rows] from `roots`, in chunks of about `CHUNK_ROOTS` (row, root) pairs.

    `rows` ascends without repeats, so when it holds every row of p the
    chunks are slices rather than copies.
    """
    step = max(1, CHUNK_ROOTS // len(roots))
    if len(rows) == len(p):
        chunks = [slice(i, i + step) for i in range(0, len(p), step)]
    else:
        chunks = [rows[i : i + step] for i in range(0, len(rows), step)]
    girths = [chunk_girths(p[c], pinv[c], j, roots, scratch, cap) for c in chunks]
    return np.concatenate(girths) if girths else np.zeros(0, np.int32)


def shift_girths(p, pinv, j: int, roots: int, scratch: Scratch | None = None, rows=None):
    """Girth of each candidate (p[i], I, C_j), i in `rows` (default every row of p); 0 if incompatible.

    Walks start at the left vertices 0..roots-1, which must meet every
    shortest cycle and double edge (`search._root_count`). Pass one
    `scratch` to every shift of a search, so that its work arrays are
    allocated once.
    """
    rows = np.arange(len(p)) if rows is None else rows
    scratch = Scratch() if scratch is None else scratch
    return _girths(p, pinv, j, rows, np.arange(roots), scratch)


def survivors(p, pinv, j: int, roots: int, floor: int, scratch: Scratch | None = None):
    """Indices, ascending, of the candidates (p[i], I, C_j) whose girth exceeds `floor`.

    The roots 0..roots-1 are taken in groups that at least double in
    size (0, then 1-2, then 3-6, ...) and that fill at least one chunk
    of `CHUNK_ROOTS` pairs with the candidates still alive, since a
    smaller call costs about as much. Each group walks those candidates
    up to level cap = max(1, floor // 2), and a candidate is dropped as
    soon as the walks from one root meet. Proof. A meeting at level 1
    is a double edge, and one at a level 1 < L <= cap shows girth
    <= 2L <= floor (`chunk_girths`); either way the candidate does not
    beat the floor. Conversely, a candidate that does not beat it is
    incompatible or has an even girth g <= floor, so g / 2 <= cap; a
    root on one of its double edges or shortest cycles, which the roots
    hold as `shift_girths` asks, meets at level 1 or g / 2, in its own
    group if not before. The first groups are small because, below the
    best girth found so far, most candidates close a short cycle
    through root 0 already.
    """
    cap = max(1, floor // 2)
    scratch = Scratch() if scratch is None else scratch
    alive = np.arange(len(p))
    start, size = 0, 1
    while start < roots and len(alive):
        size = max(size, CHUNK_ROOTS // len(alive))
        group = np.arange(start, min(roots, start + size))
        alive = alive[_girths(p, pinv, j, alive, group, scratch, cap) > 2 * cap]
        start, size = start + size, 2 * size
    return alive
