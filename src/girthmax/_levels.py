"""Level engine of the search: the exact girth of many candidates at once.

For one shift j, `shift_girths` scores every candidate (q1, j) of a
search. `chunk_girths` extends the non-backtracking walks from a set of
roots level by level, as numpy gathers shared by a chunk of q1 rows,
and a candidate's girth is twice the first level at which two walks
from one root meet. This reads girth off closed non-backtracking
walks, the view of Fossorier, "Quasi-cyclic LDPC codes from circulant
permutation matrices" (IEEE Trans. IT 50(8), 2004). The proofs are in
the docstrings of `chunk_girths` (the level test) and `shift_girths`
(the roots).

This module loads numpy; `search` imports it only for searches large
enough to repay that (`search._LEVEL_MIN_CANDIDATES`).
"""

from __future__ import annotations

import math

import numpy as np

from .perm import Permutation, ScalingStrategy
from .search import SearchConfig, _root_count

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


def images(cfg: SearchConfig, q1s: list[Permutation]):
    """Images of p1 = scale_up(q1) and of p1^-1 for every q1, one row each.

    numpy arrays of shape (len(q1s), m), uint8 while m <= 256, else
    uint16. The formulas are `scale_up`'s; since scale_up(q1)^-1 =
    scale_up(q1^-1), the inverse rows scale the inverse q1 rows.
    """
    k, m, n = cfg.k, cfg.m, cfg.b * cfg.k
    dtype = np.uint8 if m <= 256 else np.uint16
    q = np.array([q1.image for q1 in q1s], dtype)
    x = np.arange(m)
    if cfg.strategy is ScalingStrategy.BLOCK:
        src, offset, factor = x // k, x % k, k
    else:
        src, offset, factor = x % n, x - x % n, 1
    offset = offset.astype(dtype)
    return tuple(rows[:, src] * factor + offset for rows in (q, q.argsort(axis=1).astype(dtype)))


def chunk_girths(p, pinv, j: int, roots, scratch: Scratch):
    """Girth of each candidate (p[i], I, C_j) of one chunk; 0 if incompatible.

    Level L extends, from every root, the non-backtracking walks of
    length L: a step follows a label (p1, I or C_j) other than the one
    of the step before, so every candidate has the same 3 * 2^(L-1)
    label sequences. The walks are kept in three arrays by last label,
    each of shape (walks, candidates, roots): a p1 step gathers on p
    (left to right) or pinv (right to left), an I step leaves the
    vertex as it is and a C_j step adds or subtracts j mod m. Beside
    each array, a 64-bit mask per (candidate, root) and per 64 vertices
    records the vertices its walks end at; since an I step keeps the
    vertex, its mask is the OR of its two sources' masks.

    A candidate is done at the first level where two walks from one
    root end at the same vertex, i.e. where a root's masks hold fewer
    bits than it has walks: at level 1 that is a double edge, so it is
    incompatible; at level L > 1 its girth is 2L. Proof. If the two
    walks' edges formed a forest, both walks would be paths in it (a
    non-backtracking walk in a forest is a path) from the root to the
    same vertex, hence equal; so their at most 2L edges hold a cycle
    of length <= 2L. Conversely, if the girth is 2s, the walks that go
    round a shortest cycle both ways from a root on it meet after s
    steps. So the first level with a meeting, over roots that meet
    every shortest cycle, is half the girth.
    """
    count, m = p.shape
    x = np.arange(m)
    fwd = ((x + j) % m).astype(p.dtype)
    back = ((x - j) % m).astype(p.dtype)
    one = np.uint64(1)
    # a shift by 64 or more gives 0, and so does a wrapped (negative) one
    lows = [np.array(low, p.dtype) for low in range(0, m, 64)]

    def masks(walks):
        bits = scratch.array(np.uint64, walks.shape)
        return [
            np.bitwise_or.reduce(np.left_shift(one, walks - low if low else walks, out=bits), axis=0)
            for low in lows
        ]

    shape = (1, count, len(roots))
    a = p[:, roots].reshape(shape)
    i = np.broadcast_to(roots.astype(p.dtype), shape)
    c = np.broadcast_to(fwd[roots], shape)
    mask_a, mask_i, mask_c = masks(a), masks(i), masks(c)
    girths = np.zeros(count, np.int32)
    alive = np.arange(count)
    level = 1
    while True:
        distinct = sum(np.bitwise_count(wa | wi | wc) for wa, wi, wc in zip(mask_a, mask_i, mask_c))
        met = (distinct < 3 << (level - 1)).any(axis=1)
        if level > 1:
            girths[alive[met]] = 2 * level
        if met.all():
            return girths
        if met.any():
            keep = ~met
            alive, p, pinv = alive[keep], p[keep], pinv[keep]
            a, i, c = a[:, keep], i[:, keep], c[:, keep]
            mask_a, mask_i, mask_c = ([w[keep] for w in ms] for ms in (mask_a, mask_i, mask_c))
        # after an even level the walks sit on left vertices
        image, shift = (p, fwd) if level % 2 == 0 else (pinv, back)
        row_starts = (np.arange(len(alive)) * m)[:, None]
        index = scratch.array(np.intp, (2 * len(i), *i.shape[1:]))
        a, i, c = (
            image.ravel().take(np.add(np.concatenate((i, c)), row_starts, out=index)),
            np.concatenate((a, c)),
            shift.take(np.concatenate((a, i))),
        )
        mask_a, mask_i, mask_c = masks(a), [wa | wc for wa, wc in zip(mask_a, mask_c)], masks(c)
        level += 1


def shift_girths(cfg: SearchConfig, p, pinv, j: int, scratch: Scratch | None = None):
    """Girth of every candidate (q1, j), one per row of p; 0 if incompatible.

    Roots (`search._root_count`): block scaling uses all m left
    vertices. Interleaved scaling uses the n = b*k left vertices
    0..n-1: there p1 maps i + t*n to q1[i] + t*n, so x -> x + n mod m
    (on both sides) commutes with p1, I and C_j and is an automorphism
    of the graph. It moves any shortest cycle, or double edge, through
    a left vertex x onto one through x mod n. Rows go through `chunk_girths` in chunks of about
    `CHUNK_ROOTS` (row, root) pairs; pass one `scratch` to every shift
    of a search, so that its work arrays are allocated once.
    """
    roots = np.arange(_root_count(cfg))
    rows = max(1, CHUNK_ROOTS // len(roots))
    scratch = Scratch() if scratch is None else scratch
    return np.concatenate([
        chunk_girths(p[i : i + rows], pinv[i : i + rows], j, roots, scratch) for i in range(0, len(p), rows)
    ])
