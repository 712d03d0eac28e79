"""Permutation algebra on {0..n-1}.

Permutations are kept in one-line notation: ``image[i]`` is where ``i``
goes. Labels are 0-based everywhere in code; 1-based indices appear only
in rendered text (`one_based`). Composition is right-to-left:
``compose(p, q)`` applies ``q`` first.

A cycle type is the multiset of cycle lengths of a permutation, stored
as a tuple sorted in descending order. The cycle type of ``p ∘ q⁻¹`` is
what relates two permutations structurally: a 2-permutation graph built
from (p, q) has exactly one cycle of length 2*l per part l. Each of its
cycles alternates the two kinds of edge, left i -> right p(i) -> left
q⁻¹(p(i)) -> ..., so its left vertices form one cycle of ``q⁻¹ ∘ p``,
which is conjugate to ``p ∘ q⁻¹``.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterable, Iterator

__all__ = [
    "Permutation",
    "CycleType",
    "ScalingStrategy",
    "identity",
    "circulant",
    "compose",
    "inverse",
    "cycle_type",
    "relative_cycle_type",
    "scale_up",
    "enumerate_k_cycles",
    "one_based",
]

# multiset of cycle lengths, sorted descending, summing to n
CycleType = tuple[int, ...]


class ScalingStrategy(str, Enum):
    """How scale_up replicates a permutation across k offset classes."""

    BLOCK = "block"
    INTERLEAVED = "interleaved"


class Permutation:
    """A bijection on {0..n-1} in one-line notation (immutable)."""

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        img = tuple(image)
        n = len(img)
        if n < 1:
            raise ValueError("permutation must act on at least one element")
        seen = [False] * n
        for v in img:
            if not 0 <= v < n or seen[v]:
                raise ValueError(f"not a bijection on 0..{n - 1}: {img}")
            seen[v] = True
        object.__setattr__(self, "image", img)

    @property
    def size(self) -> int:
        return len(self.image)

    def __len__(self) -> int:
        return len(self.image)

    def __getitem__(self, i: int) -> int:
        return self.image[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.image)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


def identity(n: int) -> Permutation:
    """The identity permutation on n elements."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Permutation(range(n))


def circulant(n: int, j: int) -> Permutation:
    """The cyclic shift i -> (i + j) mod n, with 0 <= j < n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= j < n:
        raise ValueError(f"shift j={j} outside [0, {n})")
    return Permutation((i + j) % n for i in range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: result[i] = p[q[i]]."""
    if p.size != q.size:
        raise ValueError(f"size mismatch: {p.size} != {q.size}")
    pi = p.image
    return Permutation(pi[v] for v in q.image)


def inverse(p: Permutation) -> Permutation:
    """The permutation sending p[i] back to i."""
    inv = [0] * p.size
    for i, v in enumerate(p.image):
        inv[v] = i
    return Permutation(inv)


def cycle_type(p: Permutation) -> CycleType:
    """Multiset of cycle lengths of p, sorted descending."""
    img = p.image
    seen = [False] * len(img)
    parts = []
    for i in range(len(img)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            length += 1
            j = img[j]
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def relative_cycle_type(p: Permutation, q: Permutation) -> CycleType:
    """Cycle type of p ∘ q⁻¹ (for equal-size p, q).

    This is the structural relation between two rows of a permutation
    composition: it is invariant under simultaneous relabeling of both.
    """
    return cycle_type(compose(p, inverse(q)))


def _scale_map(n: int, k: int, strategy: ScalingStrategy) -> tuple[list[int], list[int], int]:
    """The scaling formula as maps (src, offset, factor) on the n*k positions.

    Position x of the scaled permutation goes to q[src[x]] * factor + offset[x]:

    block:        x = i*k + t  ->  q[i]*k + t   (t is the low digit)
    interleaved:  x = i + t*n  ->  q[i] + t*n   (t is the high digit)

    `scale_up` applies it to one permutation and the search's level
    engine to a whole array of q rows at once.
    """
    xs = range(n * k)
    if ScalingStrategy(strategy) is ScalingStrategy.BLOCK:
        return [x // k for x in xs], [x % k for x in xs], k
    return [x % n for x in xs], [x - x % n for x in xs], 1


def scale_up(q: Permutation, k: int, strategy: ScalingStrategy = ScalingStrategy.BLOCK) -> Permutation:
    """Lift q from n to n*k elements by replicating it across k offset classes.

    Block scaling puts the copy index in the low digit of a position,
    interleaved scaling in the high digit (`_scale_map` has the
    formula). Either way each cycle of q is replicated k times, so the
    cycle type of the result is k copies of each part of cycle_type(q).
    Scaling by k=1 returns q itself.
    """
    if k < 1:
        raise ValueError("scale factor k must be >= 1")
    strategy = ScalingStrategy(strategy)
    if k == 1:
        return q
    src, offset, factor = _scale_map(q.size, k, strategy)
    image = q.image
    return Permutation([image[s] * factor + o for s, o in zip(src, offset)])


def enumerate_k_cycles(k: int) -> Iterator[Permutation]:
    """Yield the (k-1)! permutations of S_k that are a single k-cycle.

    Each arrangement s of 1..k-1 is the cycle 0 -> s[0] -> ... ->
    s[k-2] -> 0 (`_levels.cycle_rows` builds the same rows in numpy).
    All (k-1)! image rows are built and sorted before the first one is
    yielded, so they come in lexicographic order of the image sequence.
    """
    if k < 2:
        raise ValueError("k must be >= 2 for a k-cycle")
    rows = []
    for tail in itertools.permutations(range(1, k)):
        image = [0] * k
        for v, w in zip((0, *tail), (*tail, 0)):
            image[v] = w
        rows.append(image)
    rows.sort()
    yield from map(Permutation, rows)


def one_based(p: Permutation) -> str:
    """Space-separated 1-based one-line notation, e.g. "2 3 1" for [1, 2, 0]."""
    return " ".join(str(v + 1) for v in p.image)
