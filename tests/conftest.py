import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from girthmax.btu import Btu, IncompatiblePermutations
from girthmax.girth import girth_bfs
from girthmax.perm import Permutation, enumerate_k_cycles
from girthmax.search import SearchConfig, construct_candidate, valid_shifts

SRC = str(Path(__file__).resolve().parents[1] / "src")

# puts every search with more than one worker on the pool, whatever its
# size, and makes every pool worker exit at its first shift, on either
# path, since every range of either scorer is one `_task`; the patched
# function is top-level so that the pool can pickle it by name
_DYING_WORKERS = (
    "import os, sys\n"
    "import girthmax.search as search\n"
    "parent, task = os.getpid(), search._task\n"
    "def dying_task(*args, **kwargs):\n"
    "    if os.getpid() != parent:\n"
    "        os._exit(3)\n"
    "    return task(*args, **kwargs)\n"
    "search._task = dying_task\n"
    "search._POOL_MIN_ROWS = 0\n"
)


def random_disjoint_permutation(rng: random.Random, m: int, forbidden: list[set[int]]) -> Permutation:
    """A uniform-ish random permutation avoiding forbidden[i] at each i.

    Randomized greedy with restarts; fine for the small m the tests use.
    """
    for _ in range(10_000):
        free = list(range(m))
        rng.shuffle(free)
        image = [-1] * m
        used = set()
        ok = True
        for i in range(m):
            choices = [v for v in free if v not in used and v not in forbidden[i]]
            if not choices:
                ok = False
                break
            v = rng.choice(choices)
            image[i] = v
            used.add(v)
        if ok:
            return Permutation(image)
    raise RuntimeError(f"could not draw a disjoint permutation for m={m}")


def random_btu(rng: random.Random, m: int, r: int) -> Btu:
    """A random (m, r) BTU: r successively-disjoint random permutations."""
    perms: list[Permutation] = []
    forbidden: list[set[int]] = [set() for _ in range(m)]
    for _ in range(r):
        p = random_disjoint_permutation(rng, m, forbidden)
        perms.append(p)
        for i, v in enumerate(p.image):
            forbidden[i].add(v)
    return Btu(perms)


# Table 1 winners (j, q1 image, 0-based) under interleaved scaling
TABLE_1_WINNERS = {5: (7, (4, 2, 3, 0, 1)), 6: (7, (1, 3, 5, 2, 0, 4)), 7: (10, (2, 4, 6, 1, 5, 0, 3))}


def table_1_winner(k: int) -> Btu:
    j, q1 = TABLE_1_WINNERS[k]
    return construct_candidate(Permutation(q1), j, SearchConfig(k=k))


def seeded_lift(base: Btu, L: int, rng: random.Random) -> Btu:
    """Random L-lift (i, a) -> (p(i), a + v mod L), a voltage v per edge,
    then a random relabeling of rows and columns."""
    n = base.m * L
    lifted = []
    for p in base.perms:
        img = [0] * n
        for i, pi in enumerate(p.image):
            v = rng.randrange(L)
            for a in range(L):
                img[i * L + a] = pi * L + (a + v) % L
        lifted.append(Permutation(img))
    row, col = list(range(n)), list(range(n))
    rng.shuffle(row)
    rng.shuffle(col)
    return Btu(lifted).relabel(Permutation(row), Permutation(col))


def candidate_space(cfg: SearchConfig):
    """All (q1, j) pairs of a search, in scan (= tie-break) order."""
    lower = cfg.b * cfg.k if cfg.j_range_filter else 0
    q1s = list(enumerate_k_cycles(cfg.b * cfg.k))
    for j in valid_shifts(cfg.m, lower):
        for q1 in q1s:
            yield q1, j


def reference_girth(q1: Permutation, j: int, cfg: SearchConfig) -> int:
    """Girth of the candidate (q1, j) by its definition, 0 where it is incompatible."""
    try:
        return girth_bfs(construct_candidate(q1, j, cfg).matrix()).value
    except IncompatiblePermutations:
        return 0


def networkx_girth(btu: Btu):
    """Girth of the BTU's graph by networkx, an implementation independent of girth_bfs."""
    nx = pytest.importorskip("networkx")
    return nx.girth(nx.Graph((("row", i), ("col", p[i])) for p in btu.perms for i in range(btu.m)))


def round_trips(value) -> list:
    """`value` after copy.copy, after copy.deepcopy and after a pickle round trip."""
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def run_python(code: str, dying_workers: bool = False) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter on this checkout's sources.

    With `dying_workers`, `search._task` is patched first so that every pool worker dies, and every search
    with more than one worker starts a pool. The timeout fails a hung
    pool instead of stalling the suite.
    """
    if dying_workers:
        code = _DYING_WORKERS + code
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
