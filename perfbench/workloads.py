"""Workload definitions, seeded inputs and fixed references.

This module does not import girthmax: inputs and references are built
in plain Python (and networkx), so a change to the program cannot change
what it is checked against.
"""

from __future__ import annotations

import math
import random

# Table 1 winners and the block-strategy k = 7 winner, keyed by
# (strategy, k): (best girth, witness j, witness q1 image, 0-based).
REFERENCES = {
    ("interleaved", 5): (8, 7, (4, 2, 3, 0, 1)),
    ("interleaved", 6): (8, 7, (1, 3, 5, 2, 0, 4)),
    ("interleaved", 7): (10, 10, (2, 4, 6, 1, 5, 0, 3)),
    ("block", 7): (8, 22, (1, 2, 5, 6, 0, 3, 4)),
}

# name -> (scaling strategy, worker count, k rows run in order by one pass)
SEARCH_WORKLOADS = {
    "table1": ("interleaved", 1, (5, 6, 7)),
    "table1_2w": ("interleaved", 2, (5, 6, 7)),
    "block7": ("block", 1, (7,)),
}

GRAPH_COUNT = 120
GRAPH_M_MIN, GRAPH_M_MAX = 100, 1000
GRAPH_BASES = (5, 6, 7)

WORKLOADS = (*SEARCH_WORKLOADS, "graph_io")


def covered(k: int, b: int = 1) -> int:
    """|valid_shifts(m, b*k)| * (b*k - 1)!: the candidates one search covers."""
    m, n = b * k * k, b * k
    shifts = sum(1 for j in range(n + 1, m - n) if math.gcd(j, m) == 1)
    return shifts * math.factorial(n - 1)


def winner_images(k: int) -> list[list[int]]:
    """Constituent images of the interleaved Table 1 winner for k (m = k^2)."""
    _, j, q1 = REFERENCES[("interleaved", k)]
    m = k * k
    p1 = [q1[i % k] + (i // k) * k for i in range(m)]
    return [p1, list(range(m)), [(i + j) % m for i in range(m)]]


def lift(images: list[list[int]], L: int, rng: random.Random) -> list[list[int]]:
    """Random L-lift: (i, a) -> (p(i), a + v(i) mod L), with a voltage v per edge.

    Lifting maps cycles onto closed walks of the base graph, so the girth
    of a lift is at least the base girth; disjoint constituents stay
    disjoint.
    """
    out = []
    for p in images:
        img = [0] * (len(p) * L)
        for i, pi in enumerate(p):
            v = rng.randrange(L)
            for a in range(L):
                img[i * L + a] = pi * L + (a + v) % L
        out.append(img)
    return out


def relabel(images: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Permute rows and columns at random: p' = col o p o row^-1."""
    m = len(images[0])
    row = list(range(m))
    col = list(range(m))
    rng.shuffle(row)
    rng.shuffle(col)
    out = []
    for p in images:
        img = [0] * m
        for x in range(m):
            img[row[x]] = col[p[x]]
        out.append(img)
    return out


def graph_inputs(seed: int, count: int = GRAPH_COUNT) -> list[list[list[int]]]:
    """`count` relabeled random lifts of the k = 5, 6, 7 winners, m in 100..1000.

    Sizes are stratified (graph i aims at the i-th of `count` equal slices
    of the size range) so that the total work of a pass varies little
    from seed to seed; the base, slice offset, voltages and relabeling
    come from the seed.
    """
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        k = GRAPH_BASES[i % len(GRAPH_BASES)]
        m0 = k * k
        target = GRAPH_M_MIN + (GRAPH_M_MAX - GRAPH_M_MIN) * (i + rng.random()) / count
        L = min(GRAPH_M_MAX // m0, max(-(-GRAPH_M_MIN // m0), round(target / m0)))
        graphs.append(relabel(lift(winner_images(k), L, rng), rng))
    return graphs


def reference_girth(images: list[list[int]]) -> int:
    """Girth by networkx, an implementation independent of girthmax."""
    import networkx as nx

    m = len(images[0])
    g = nx.Graph()
    g.add_edges_from((x, m + p[x]) for p in images for x in range(m))
    return nx.girth(g)


def cycle_error(images: list[list[int]], witness, length: int) -> str | None:
    """Why `witness` is not a cycle of `length` in the graph, or None if it is.

    Vertices are numbered left x -> x, right c -> m + c.
    """
    m = len(images[0])
    if witness is None or len(witness) != length:
        return f"witness {witness!r} does not have length {length}"
    if len(set(witness)) != length:
        return f"witness {witness!r} repeats a vertex"
    edges = {(x, m + p[x]) for p in images for x in range(m)}
    for a, b in zip(witness, witness[1:] + witness[:1]):
        if (min(a, b), max(a, b)) not in edges:
            return f"witness {witness!r} uses the non-edge ({a}, {b})"
    return None
