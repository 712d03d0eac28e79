import ast
import concurrent.futures
import dataclasses
import functools
import hashlib
import itertools
import math
import multiprocessing
import pathlib
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import girthmax.search
from girthmax import _levels
from girthmax.bounds import moore_bipartite
from girthmax.btu import BinaryMatrix, IncompatiblePermutations
from girthmax.girth import girth_bfs, girth_oracle
from girthmax.perm import Permutation, ScalingStrategy, cycle_type, enumerate_k_cycles, inverse, one_based, scale_up
from girthmax.search import (
    NoValidShift,
    SearchConfig,
    candidate_counts,
    construct_candidate,
    report_dict,
    search_r3,
    valid_shifts,
)

from conftest import TABLE_1_WINNERS, candidate_space, reference_girth, round_trips, run_python


class TestValidShifts:
    def test_m25(self):
        assert valid_shifts(25, 5) == [6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19]

    def test_m9(self):
        assert valid_shifts(9, 3) == [4, 5]

    def test_m6_boundary_exclusion(self):
        assert valid_shifts(6, 1) == []

    def test_unrestricted(self):
        assert valid_shifts(6, 0) == [1, 5]

    def test_precondition(self):
        with pytest.raises(ValueError):
            valid_shifts(6, 3)


class TestConstructCandidate:
    def test_k3_block(self):
        cfg = SearchConfig(k=3)
        b = construct_candidate(Permutation([1, 2, 0]), 4, cfg)
        assert b.perms[0].image == (3, 4, 5, 6, 7, 8, 0, 1, 2)
        assert b.perms[1].image == tuple(range(9))
        assert b.perms[2].image == tuple((i + 4) % 9 for i in range(9))

    def test_fixed_point_collides_with_identity(self):
        cfg = SearchConfig(k=3)
        with pytest.raises(IncompatiblePermutations):
            construct_candidate(Permutation([0, 2, 1]), 4, cfg)

    def test_k2_unfiltered_by_hand(self):
        # scale([1,0], 2, block) = [2,3,0,1]; never hits I_4 nor C_1
        cfg = SearchConfig(k=2, j_range_filter=False)
        b = construct_candidate(Permutation([1, 0]), 1, cfg)
        assert b.perms[0].image == (2, 3, 0, 1)

    def test_k2_interleaved_collides(self):
        # scale([1,0], 2, interleaved) = [1,0,3,2] agrees with C_1 at 0
        cfg = SearchConfig(k=2, strategy=ScalingStrategy.INTERLEAVED, j_range_filter=False)
        with pytest.raises(IncompatiblePermutations):
            construct_candidate(Permutation([1, 0]), 1, cfg)

    def test_wrong_q1_size(self):
        with pytest.raises(ValueError):
            construct_candidate(Permutation([1, 0]), 4, SearchConfig(k=3))


def root_count(cfg: SearchConfig) -> int:
    """The level engine's roots per candidate in a search."""
    return _levels.root_count(cfg.b * cfg.k, cfg.k, cfg.strategy)


def engine_girth(q1: Permutation, j: int, cfg: SearchConfig) -> int:
    t = _levels.images([q1.image], [inverse(q1).image], cfg.k, cfg.strategy)
    return int(_levels.shift_girths(t, j, root_count(cfg))[0])


def snapshot(result):
    return (
        result.best_girth,
        result.witness_j,
        result.witness_q1,
        result.candidates_evaluated,
        result.skipped_incompatible,
    )


# The engine corpus of a search: its rows (`corpus`) and the girths of
# each admissible shift's candidates, by definition (`shift_references`)
# and on the engine (`engine_girths`). Each is built once per session,
# for the search without the j filter, whose shifts hold the filtered
# ones, and shared by TestLevelEngine, TestFloor and
# TestTransposeSymmetry; its arrays are read-only.


def admissible(cfg: SearchConfig) -> list[int]:
    """The admissible shifts of a search, ascending."""
    return valid_shifts(cfg.m, cfg.b * cfg.k if cfg.j_range_filter else 0)


def read_only(array):
    array.flags.writeable = False
    return array


@functools.cache
def corpus(cfg: SearchConfig) -> tuple:
    """(q_rows, t, roots): every q1's image row, in enumeration order, and the level engine's inputs."""
    if cfg.j_range_filter:
        return corpus(dataclasses.replace(cfg, j_range_filter=False))
    q_rows = read_only(_levels.cycle_rows(cfg.b * cfg.k))
    t = read_only(_levels.images(q_rows, q_rows.argsort(axis=1), cfg.k, cfg.strategy))
    return q_rows, t, root_count(cfg)


@functools.cache
def shift_references(cfg: SearchConfig) -> dict[int, list[int]]:
    """`reference_girth` of every candidate of every admissible shift j, by q1 in enumeration order."""
    if cfg.j_range_filter:
        every = shift_references(dataclasses.replace(cfg, j_range_filter=False))
        return {j: every[j] for j in admissible(cfg)}
    q1s = list(enumerate_k_cycles(cfg.b * cfg.k))
    return {j: [reference_girth(q1, j, cfg) for q1 in q1s] for j in admissible(cfg)}


@functools.cache
def engine_girths(cfg: SearchConfig) -> dict:
    """`_levels.shift_girths` of every candidate of every admissible shift j, by q1 in enumeration order.

    `TestLevelEngine::test_girths_match_girth_bfs_on_every_candidate`
    checks them against `shift_references`.
    """
    if cfg.j_range_filter:
        every = engine_girths(dataclasses.replace(cfg, j_range_filter=False))
        return {j: every[j] for j in admissible(cfg)}
    _, t, roots = corpus(cfg)
    return {j: read_only(_levels.shift_girths(t, j, roots)) for j in admissible(cfg)}


def engine_inputs(cfg: SearchConfig) -> tuple:
    """(t, roots) of the level engine for a search: its `_levels.images` table of every q1, and its roots."""
    return corpus(cfg)[1:]


ENGINE_SIZES = [(3, 1), (4, 1), (5, 1), (6, 1), (3, 2)]

# (k, b) of the first meeting level's checks
FIRST_LEVEL_SIZES = [(k, 1) for k in range(3, 8)] + [(2, 2), (3, 2), (2, 3), (2, 4)]


def first_level_configs(k: int, b: int) -> list[SearchConfig]:
    """The searches of (k, b), both scalings, j filter on and off, that have an admissible shift.

    The j filter leaves a shift only when m = b*k^2 exceeds 2*b*k, i.e. k > 2.
    """
    return [
        SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False))
        if not j_filter or k > 2
    ]


def engine_rows(rows, m: int):
    """The engine's table t of permutation rows of size m: the rows in t[0], their inverses in t[1], in its dtype."""
    dtype = np.uint8 if m <= 256 else np.uint16
    p = np.array(rows, dtype)
    return np.stack((p, np.argsort(p, axis=1).astype(dtype)))


def affine_rows(rng, m: int, count: int, j: int) -> list[list[int]]:
    """`count` rows x -> a*x + b mod m, a a unit, that share no position with I or C_j.

    Unlike uniformly random rows, which nearly always close a 4-cycle,
    these reach girths up to 12.
    """
    rows = []
    while len(rows) < count:
        a, b = (int(v) for v in rng.integers(1, m, 2))
        row = [(a * x + b) % m for x in range(m)]
        if math.gcd(a, m) == 1 and all(y not in (x, (x + j) % m) for x, y in enumerate(row)):
            rows.append(row)
    return rows


def row_girth(row: list[int], j: int) -> int:
    """girth_bfs of the candidate (row, I, C_j), 0 where a left vertex repeats a column."""
    m = len(row)
    neighbours = [(row[x], x, (x + j) % m) for x in range(m)]
    if any(len(set(n)) < 3 for n in neighbours):
        return 0
    return girth_bfs(BinaryMatrix(m, m, neighbours)).value


def walk_girth(row: list[int], inverse_row: list[int], j: int, root: int, cap: int) -> int:
    """`chunk_girths` of one candidate from one root, by walking every label sequence in Python."""
    m = len(row)
    walks = [(root, None)]
    for level in range(1, cap + 1):
        # odd levels step from left to right vertices
        image, step = (row, j) if level % 2 else (inverse_row, -j)
        walks = [
            (end, label)
            for vertex, last in walks
            for label, end in (("p", image[vertex]), ("i", vertex), ("c", (vertex + step) % m))
            if label != last
        ]
        if len({end for end, _ in walks}) < len(walks):
            return 0 if level == 1 else 2 * level
    return 2 * cap + 2


# k = 5..8 and b = 2 with k = 3, 4, both scalings, j filter on and off
RELABEL_CONFIGS = [
    SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
    for (k, b), strategy, j_filter in itertools.product(
        [(5, 1), (6, 1), (7, 1), (8, 1), (3, 2), (4, 2)], ScalingStrategy, (True, False)
    )
]


def config_id(cfg: SearchConfig) -> str:
    return f"k{cfg.k}-b{cfg.b}-{cfg.strategy.value}-{'filtered' if cfg.j_range_filter else 'unfiltered'}"


@functools.cache
def relabel_inputs(cfg: SearchConfig) -> tuple:
    """(t, roots, shifts, T, G): the engine's table, every admissible shift, its relabeled table and the girths of this at shift 1."""
    t = _levels.images(*_levels.orbit_minima(_levels.cycle_rows(cfg.b * cfg.k), cfg.strategy), cfg.k, cfg.strategy)
    roots, shifts = root_count(cfg), admissible(cfg)
    big = _levels.relabeled(t, shifts)
    return (t, roots, shifts, big, read_only(_levels.shift_girths(big, 1, roots)))


# SHA-256 of the bytes of `_levels.orbit_minima(_levels.cycle_rows(n),
# strategy)`, uint8 and C-ordered, as the earlier comparison of every
# row with each of its 2n relabelings, one map at a time, computed them;
# the brute-force orbit test covers n <= 8, and n = 11 runs under
# `extended`
ORBIT_MINIMA_DIGESTS = [
    (8, "block", "af4737ab13503db5f41896ec9092c409c9bd3c634291427380a0f62116f4dc04"),
    (8, "interleaved", "207bbed78a1473744532d0646a48f3cf38b8fa0ab931bb21aa1f9d1acb892733"),
    (9, "block", "5b6fb1bd02dc501e3b366474132d850c0704f630954390b802432a36510e0aa2"),
    (9, "interleaved", "0bc9772c5d17c61fc7b1cffd4e2b6f25e536fbffe023a9039113a803a3124e1b"),
    (10, "block", "72442f7ebd04ab57abddcb48a8ff76bdfebdb23685afca62ff6d3f6b58fc2164"),
    (10, "interleaved", "e549f063350949cee3e2da7869fe824b4cd803a63738e6abfa7326d113427e88"),
    (11, "block", "f29ec7a15585c5109225d082799676e2df76ad39506ba4e966712fbfec45ddef"),
    (11, "interleaved", "e065f6cc96ce74491d3a31cee4c458393a93359ec2800708924dbdcaab2ffaed"),
]


def orbit_minima_digest(n: int, strategy: ScalingStrategy) -> str:
    rows = _levels.orbit_minima(_levels.cycle_rows(n), strategy)[0]
    assert rows.dtype == np.uint8 and rows.flags.c_contiguous
    return hashlib.sha256(rows.tobytes()).hexdigest()


@pytest.mark.extended
@pytest.mark.parametrize(
    "strategy, digest", [(ScalingStrategy(s), digest) for n, s, digest in ORBIT_MINIMA_DIGESTS if n == 11]
)
def test_orbit_minima_rows_are_pinned_at_n11(strategy, digest):
    # 3,628,800 rows: a few seconds and about 0.3 GB
    assert orbit_minima_digest(11, strategy) == digest


def test_search_reaches_the_level_engine_only_through_setup_and_batch_bests():
    # `search` passes the engine's tables on without reading them, so a
    # change of what they hold (the p1 table t, the roots) is an edit of
    # `_levels` alone: search.py reads no other `_levels` attribute,
    # imports no name from it, and names no p1^-1 array
    tree = ast.parse(pathlib.Path(girthmax.search.__file__).read_text())
    nodes = list(ast.walk(tree))
    read = {
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_levels"
    }
    assert read == {"setup", "batch_bests"}
    imported = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in imported if "_levels" in name], imported
    identifiers = {
        value
        for node in nodes
        for field, value in ast.iter_fields(node)
        if field in ("id", "attr", "arg", "name", "asname") and isinstance(value, str)
    }
    assert "_levels" in identifiers
    assert not [name for name in identifiers if "pinv" in name.lower()]


class TestLevelEngine:
    @pytest.mark.parametrize("k, b", ENGINE_SIZES)
    def test_girths_match_girth_bfs_on_every_candidate(self, k, b):
        incompatible = 0
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            girths = engine_girths(cfg)
            for j, want in shift_references(cfg).items():
                assert girths[j].tolist() == want, (strategy, j)
                incompatible += want.count(0)
        assert incompatible > 0

    @pytest.mark.parametrize("k, b", ENGINE_SIZES)
    def test_capped_walks_mark_the_girths_up_to_twice_the_cap(self, k, b):
        # from every root: min(girth, 2 * cap + 2), so a candidate is
        # marked (<= 2 * cap) exactly when its girth is at most 2 * cap
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            t, roots = engine_inputs(cfg)
            for (j, want), cap in itertools.product(shift_references(cfg).items(), (1, 2, 3, 4, 5)):
                got = _levels.chunk_girths(t, j, np.arange(roots), cap).tolist()
                assert got == [min(g, 2 * cap + 2) for g in want], (strategy, j, cap)

    def test_first_level_bounds_every_girth(self):
        # every q1 of every admissible shift, j filter on and off: the
        # exact girth from level 1, a double edge counted as 2, is at
        # least twice the shift's first level, and each level is met
        # with equality by some candidate
        met = set()
        for cfg in (cfg for k, b in FIRST_LEVEL_SIZES for cfg in first_level_configs(k, b)):
            for j, girths in engine_girths(cfg).items():
                level = _levels.first_level(cfg.b * cfg.k, cfg.k, cfg.strategy, j)
                shortest = int(np.where(girths == 0, 2, girths).min())
                assert shortest >= 2 * level, (cfg, j, level, shortest)
                if shortest == 2 * level:
                    met.add(level)
        assert met == {1, 2, 3}

    @pytest.mark.parametrize("k, b", FIRST_LEVEL_SIZES)
    def test_first_level_keeps_every_result(self, k, b):
        # the survivors and the capped girths tested from the shift's
        # first level on are those tested from level 1, at floor 0 and
        # every even floor from 4 to two below the ceiling, and at every
        # cap up to the search's, below the first level too; from level
        # 1, capped girths are min(girth, 2 * cap + 2)
        for cfg in first_level_configs(k, b):
            t, roots = engine_inputs(cfg)
            ceiling = girthmax.search._girth_ceiling(cfg)
            for j, exact in engine_girths(cfg).items():
                level = _levels.first_level(b * k, k, cfg.strategy, j)
                for cap in range(1, ceiling // 2):
                    got = _levels.shift_girths(t, j, roots, cap=cap, first=level)
                    assert got.tolist() == np.minimum(exact, 2 * cap + 2).tolist(), (cfg, j, cap)
                for floor in (0, *range(4, ceiling - 1, 2)):
                    got = _levels.survivors(t, j, roots, floor, ceiling // 2 - 1, level)
                    want = _levels.survivors(t, j, roots, floor, ceiling // 2 - 1)
                    assert [a.tolist() for a in got] == [a.tolist() for a in want], (cfg, j, floor)

    @pytest.mark.parametrize("chunk_roots", [_levels.CHUNK_ROOTS, 64])
    @pytest.mark.parametrize("k, b", ENGINE_SIZES)
    def test_survivors_are_the_candidates_above_the_floor(self, k, b, chunk_roots, monkeypatch):
        # 64 (row, root) pairs per chunk split the roots into several
        # groups and the rows into several chunks. The survivors come
        # with their exact girths, 0 at or below the floor; the rows may
        # hold such candidates where the cascade stopped early
        monkeypatch.setattr(_levels, "CHUNK_ROOTS", chunk_roots)
        kept = dropped = cascaded = 0
        cascades = False
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            t, roots = engine_inputs(cfg)
            cascades |= t.shape[1] * roots > chunk_roots
            for (j, want), floor in itertools.product(shift_references(cfg).items(), (0, 4, 6, 8)):
                rows, girths = (a.tolist() for a in _levels.survivors(t, j, roots, floor))
                assert rows == sorted(set(rows)), (strategy, j, floor)
                assert [r for r, g in zip(rows, girths) if g] == [i for i, g in enumerate(want) if g > floor], (
                    strategy,
                    j,
                    floor,
                )
                assert girths == [want[r] if want[r] > floor else 0 for r in rows], (strategy, j, floor)
                above = sum(g > 0 for g in girths)
                kept, dropped, cascaded = kept + above, dropped + len(want) - above, cascaded + len(want) - len(rows)
                if not floor:
                    assert rows == list(range(len(want))), (strategy, j)
        assert kept and dropped
        # a shift that does not fit in one chunk runs the cascade at
        # every positive floor, which drops candidates
        assert cascaded or not cascades

    def test_survivors_scored_exactly_in_larger_searches(self):
        # block k = 7 and interleaved k = 8 split their roots and rows over
        # several groups and chunks at the default chunk size; the
        # survivors are checked against the engine's exact girths
        for k, strategy in ((7, ScalingStrategy.BLOCK), (8, ScalingStrategy.INTERLEAVED)):
            cfg = SearchConfig(k=k, strategy=strategy)
            t, roots = engine_inputs(cfg)
            for j in valid_shifts(cfg.m, k)[:6]:
                girths = engine_girths(cfg)[j]
                for floor in (6, 8):
                    want = np.flatnonzero(girths > floor)
                    got, exact = _levels.survivors(t, j, roots, floor)
                    assert got[exact > 0].tolist() == want.tolist(), (k, strategy, j, floor)
                    assert exact[exact > 0].tolist() == girths[want].tolist(), (k, strategy, j, floor)
                    assert exact.tolist() == np.where(girths[got] > floor, girths[got], 0).tolist()

    @pytest.mark.parametrize(
        "k, strategy, j, floor, chunk_roots",
        [
            # one (row, root) pair per chunk leaves groups of 1, 2, 4, ...
            # roots, the last of them the lone root 3 (interleaved, 4
            # roots) or 15 (block, 16 roots)
            (4, ScalingStrategy.INTERLEAVED, 5, 4, 1),
            (4, ScalingStrategy.BLOCK, 5, 4, 1),
            (8, ScalingStrategy.INTERLEAVED, 9, 8, _levels.CHUNK_ROOTS),
            (7, ScalingStrategy.BLOCK, 22, 6, _levels.CHUNK_ROOTS),
        ],
    )
    def test_cascade_groups_cover_every_root(self, k, strategy, j, floor, chunk_roots, monkeypatch):
        # some candidates of the shift beat the floor, so they must be
        # walked from every root, by a group or by the exact call: the
        # capped groups run over 0..s-1 without gap or overlap, each at
        # least twice the one before, and stop at s = roots or once the
        # candidates alive times the roots fit in one chunk; then one
        # uncapped call walks those candidates from every root
        monkeypatch.setattr(_levels, "CHUNK_ROOTS", chunk_roots)
        groups, exact = [], []
        girths = _levels._girths

        def spy(t, j, rows, roots, cap=None, first=1):
            (groups if cap else exact).append((roots.tolist(), len(rows)))
            return girths(t, j, rows, roots, cap, first)

        monkeypatch.setattr(_levels, "_girths", spy)
        t, roots = engine_inputs(SearchConfig(k=k, strategy=strategy))
        assert _levels.survivors(t, j, roots, floor)[1].any()
        walked = sum((group for group, _ in groups), [])
        assert walked == list(range(len(walked))), groups
        assert all(len(b) >= 2 * len(a) for (a, _), (b, _) in zip(groups, groups[1:-1])), groups
        assert [group for group, _ in exact] == [list(range(roots))], exact
        alive = exact[0][1]
        assert len(walked) == roots or alive * roots <= chunk_roots, (groups, alive)
        # root 0 goes alone first, and no later group ran once the
        # candidates fit in one chunk
        assert groups[0][0] == [0], groups
        assert all(rows * roots > chunk_roots for _, rows in groups[1:]), groups
        if chunk_roots == 1:
            assert walked == list(range(roots)), groups
            assert [len(g) for g, _ in groups[:-1]] == [2**i for i in range(len(groups) - 1)], groups

    def test_root_0_goes_alone_first_even_when_every_root_fits_one_chunk(self, monkeypatch):
        # interleaved k = 7 scans 384 rows from 7 roots, 2,688 (row, root)
        # pairs: one chunk. At floor 8 and j = 9, root 0 alone drops all
        # but one row, and the exact call walks that one from every root
        strategy = ScalingStrategy.INTERLEAVED
        t = _levels.images(*_levels.orbit_minima(_levels.cycle_rows(7), strategy), 7, strategy)
        roots = _levels.root_count(7, 7, strategy)
        assert t.shape[1] * roots <= _levels.CHUNK_ROOTS
        want = _levels.shift_girths(t, 9, roots)
        calls = []
        girths = _levels._girths

        def spy(t, j, rows, roots, cap=None, first=1):
            calls.append((roots.tolist(), len(rows)))
            return girths(t, j, rows, roots, cap, first)

        monkeypatch.setattr(_levels, "_girths", spy)
        rows, got = _levels.survivors(t, 9, roots, 8)
        assert calls == [([0], 384), (list(range(7)), 1)], calls
        assert got.tolist() == np.where(want[rows] > 8, want[rows], 0).tolist()
        assert (np.delete(want, rows) <= 8).all()

    @pytest.mark.parametrize("cfg", RELABEL_CONFIGS, ids=config_id)
    def test_relabeled_rows_at_shift_1_have_the_girths_of_their_shifts(self, cfg):
        t, roots, shifts, big, big_girths = relabel_inputs(cfg)
        rows = t.shape[1]
        assert big.shape == (2, len(shifts) * rows, cfg.m)
        assert big.flags.c_contiguous and big.dtype == t.dtype
        # the relabeled table is a table as `images` builds: its second
        # half inverts its first row by row, and its row ranges and
        # their flat halves are views
        every = np.broadcast_to(np.arange(cfg.m), big[0].shape)
        assert (np.take_along_axis(big[1], big[0].astype(np.intp), axis=1) == every).all()
        part = big[:, rows // 2 : rows + 1]
        assert np.shares_memory(part, big) and np.shares_memory(part.reshape(2, -1), big)
        got = big_girths.reshape(len(shifts), rows)
        for j, row in zip(shifts, got):
            assert row.tolist() == _levels.shift_girths(t, j, roots).tolist(), j

    @pytest.mark.parametrize("cfg", RELABEL_CONFIGS, ids=config_id)
    def test_relabeled_rows_keep_the_survivors(self, cfg):
        t, roots, shifts, big, _ = relabel_inputs(cfg)
        # the candidates above the floor, and their girths, whether each
        # shift is scored on its own or the batch as one shift
        for floor in (4, 6, 8):
            kept = [_levels.survivors(t, j, roots, floor) for j in shifts]
            want = {s * t.shape[1] + i: g for s, (rows, exact) in enumerate(kept) for i, g in zip(rows, exact) if g}
            rows, exact = _levels.survivors(big, 1, roots, floor)
            assert {i: g for i, g in zip(rows.tolist(), exact.tolist()) if g} == want, floor

    @pytest.mark.parametrize(
        "cfg", [cfg for cfg in RELABEL_CONFIGS if cfg.strategy is ScalingStrategy.INTERLEAVED], ids=config_id
    )
    def test_relabeled_interleaved_rows_need_only_n_roots(self, cfg):
        # x -> x + n becomes x -> x + n * j^-1, which generates the same
        # subgroup of Z_m, so the roots 0..n-1 still meet every orbit
        _, roots, _, big, big_girths = relabel_inputs(cfg)
        assert roots == cfg.b * cfg.k < cfg.m
        every = _levels.shift_girths(big, 1, cfg.m)
        assert big_girths.tolist() == every.tolist()

    def test_relabeled_incompatible_candidates_occur(self):
        # the interleaved searches without the j filter have shifts that
        # collide with p1, and the relabeled rows keep them at girth 0
        incompatible = 0
        for cfg in RELABEL_CONFIGS:
            incompatible += int((relabel_inputs(cfg)[-1] == 0).sum())
        assert incompatible > 0

    def test_rows_select_candidates(self):
        cfg = SearchConfig(k=5)
        t, roots = engine_inputs(cfg)
        girths = engine_girths(cfg)[7]
        count = t.shape[1]
        for rows in (np.arange(1, count), np.arange(count - 1), np.array([0, 5, 7]), np.arange(0)):
            assert _levels.shift_girths(t, 7, roots, rows=rows).tolist() == girths[rows].tolist()

    def test_image_rows_are_contiguous(self):
        # a range of rows is then a view, and so are its two flat
        # halves, which chunk_girths gathers on without a copy at every
        # level; the pool's row ranges are such ranges
        for strategy in ScalingStrategy:
            rows = _levels.cycle_rows(5)
            t = _levels.images(rows, rows.argsort(axis=1), 5, strategy)
            assert t.flags.c_contiguous and t.dtype == "uint8" and t.shape == (2, 24, 25), strategy
            for lo, hi in ((0, 24), (0, 12), (12, 24), (5, 6)):
                part = t[:, lo:hi]
                assert np.shares_memory(part, t) and np.shares_memory(part.reshape(2, -1), t), (strategy, lo, hi)

    @pytest.mark.parametrize("strategy", ScalingStrategy)
    def test_orbit_minima_come_with_their_inverses(self, strategy):
        # the inverse rows that `orbit_minima` builds for phi(q) are the
        # ones `images` scales into p1^-1
        for n in range(3, 11):
            rows, inverse_rows = _levels.orbit_minima(_levels.cycle_rows(n), strategy)
            assert inverse_rows.dtype == rows.dtype and inverse_rows.shape == rows.shape, n
            every = np.broadcast_to(np.arange(n), rows.shape)
            assert (np.take_along_axis(inverse_rows, rows.astype(np.intp), axis=1) == every).all(), n

    def test_image_rows_invert(self):
        # t[1, r, t[0, r, x]] == x on the orbit minima that the engine
        # scans, and on random uint16 rows (k = 17, m = 289)
        rng = np.random.default_rng(17)
        cases = [(_levels.orbit_minima(_levels.cycle_rows(k), s), k, s) for k in range(5, 9) for s in ScalingStrategy]
        random_rows = np.array([rng.permutation(17) for _ in range(20)])
        cases += [((random_rows, random_rows.argsort(axis=1)), 17, s) for s in ScalingStrategy]
        for (q_rows, inverse_rows), k, strategy in cases:
            t = _levels.images(q_rows, inverse_rows, k, strategy)
            assert t.dtype == ("uint16" if k == 17 else "uint8"), (k, strategy)
            assert t.shape == (2, len(q_rows), k * k) and t.flags.c_contiguous, (k, strategy)
            every = np.broadcast_to(np.arange(k * k), t[0].shape)
            assert (np.take_along_axis(t[1], t[0].astype(np.intp), axis=1) == every).all(), (k, strategy)

    @pytest.mark.parametrize("k, b", ENGINE_SIZES)
    def test_forced_engine_search_equals_bfs_search(self, k, b, monkeypatch):
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            monkeypatch.setattr(girthmax.search, "_LEVEL_MIN_CANDIDATES", 10**12)
            bfs = search_r3(cfg)
            monkeypatch.setattr(girthmax.search, "_LEVEL_MIN_CANDIDATES", 0)
            assert snapshot(search_r3(cfg)) == snapshot(bfs), (strategy, j_filter)

    def test_forced_engine_on_two_workers(self, monkeypatch):
        monkeypatch.setattr(girthmax.search, "_LEVEL_MIN_CANDIDATES", 0)
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
        for strategy in ScalingStrategy:
            serial = search_r3(SearchConfig(k=5, strategy=strategy))
            pooled = search_r3(SearchConfig(k=5, strategy=strategy, worker_count=2))
            assert snapshot(pooled) == snapshot(serial)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_candidates(self, data):
        # any q1, not only (b*k)-cycles, and any shift 0 <= j < m
        b = data.draw(st.sampled_from([1, 2]), label="b")
        k = data.draw(st.integers(2, 9 if b == 1 else 6), label="k")
        strategy = data.draw(st.sampled_from(list(ScalingStrategy)), label="strategy")
        q1 = Permutation(data.draw(st.permutations(range(b * k)), label="q1"))
        cfg = SearchConfig(k=k, b=b, strategy=strategy)
        j = data.draw(st.integers(0, cfg.m - 1), label="j")
        assert engine_girth(q1, j, cfg) == reference_girth(q1, j, cfg)

    def test_wide_images(self):
        # m = 289 > 256 takes uint16 images and five 64-vertex mask words
        rng = random.Random(17)
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=17, strategy=strategy)
            for _ in range(3):
                q1 = Permutation(rng.sample(range(17), 17))
                j = rng.randrange(1, cfg.m)
                assert engine_girth(q1, j, cfg) == reference_girth(q1, j, cfg), (strategy, q1, j)

    def test_random_rows_across_mask_words(self):
        # one to five 64-vertex mask words, uint8 walks up to m = 256 and
        # uint16 above; from every left vertex the engine is exact, and
        # capped it gives min(girth, 2 * cap + 2)
        girths = set()
        for m in (63, 64, 65, 128, 129, 255, 256, 257, 300):
            rng = np.random.default_rng(m)
            for j in (1, m // 2, int(rng.integers(2, m - 1))):
                t = engine_rows(affine_rows(rng, m, 3, j) + [rng.permutation(m) for _ in range(2)], m)
                want = [row_girth(row, j) for row in t[0].tolist()]
                assert _levels.shift_girths(t, j, m).tolist() == want, (m, j)
                for cap in (1, 2, 3, 4):
                    got = _levels.chunk_girths(t, j, np.arange(m), cap).tolist()
                    assert got == [min(g, 2 * cap + 2) for g in want], (m, j, cap)
                girths.update(want)
        assert {0, 4, 6, 8, 10} <= girths, girths

    def test_distinct_endpoints_counted_past_255(self):
        # from level 8 on a root has 3 * 2^7 = 384 walks or more, so its
        # distinct endpoints overflow a uint8 count; at m = 60,000 the
        # walks of many candidates stay apart up to the cap
        rng = np.random.default_rng(8)
        m, j, cap = 60_000, 12_345, 8
        t = engine_rows([rng.permutation(m) for _ in range(40)], m)
        got = _levels.chunk_girths(t, j, np.array([0]), cap).tolist()
        want = [walk_girth(row, inv, j, 0, cap) for row, inv in zip(t[0].tolist(), t[1].tolist())]
        assert got == want
        assert want.count(2 * cap + 2) >= 5, want

    def test_cycle_rows_match_enumerate_k_cycles(self):
        for n in range(2, 10):
            rows = _levels.cycle_rows(n)
            assert rows.dtype == "uint8"
            assert rows.tolist() == [list(q1.image) for q1 in enumerate_k_cycles(n)], n

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm and relies on RLIMIT_AS")
    def test_cycle_rows_too_large_fail_before_any_cycle_is_generated(self):
        # 19! rows of 20 bytes: the rows' array is asked for first, so
        # MemoryError comes at once. Generating the arrangements first
        # would fill the address space up to the limit, 512 MiB above
        # the interpreter's, and raise MemoryError only then
        code = """
import os, resource
from girthmax import _levels
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (512 << 20)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    _levels.cycle_rows(20)
except MemoryError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
        out = run_python(code)
        assert out.returncode == 0, out.stderr
        # KiB of peak RSS gained
        assert 0 <= int(out.stdout) < 32 << 10, out.stdout

    def test_threshold_splits_table_1(self):
        # every search up to k = 4 (at most 48 candidates, j filter on or
        # off) stays on the reference path; b = 2, k = 3 (240) and every
        # Table 1 row (k >= 5, 288 and up) run on the engine
        def size(**kwargs):
            return sum(1 for _ in candidate_space(SearchConfig(**kwargs)))

        small = max(size(k=k, j_range_filter=f) for k in (3, 4) for f in (True, False))
        large = min(size(k=3, b=2), size(k=5))
        assert (small, large) == (48, 240)
        assert small < girthmax.search._LEVEL_MIN_CANDIDATES <= large


@functools.cache
def full_scan(cfg: SearchConfig):
    """The search without the transpose reduction: every admissible shift, on the level engine.

    Returns (girth, j, q1 image, evaluated, skipped) of the first
    maximum in (j, q1) order, over the full candidate space.
    """
    q_rows = corpus(cfg)[0]
    best = (0, 0, ())
    evaluated = skipped = 0
    for j, girths in engine_girths(cfg).items():
        girths = girths.tolist()
        if max(girths) > best[0]:
            q_idx = girths.index(max(girths))
            best = (max(girths), j, tuple(q_rows[q_idx].tolist()))
        skipped += girths.count(0)
        evaluated += len(girths) - girths.count(0)
    return (*best, evaluated, skipped)


class TestTransposeSymmetry:
    def test_scaling_commutes_with_inversion(self):
        for n, k, strategy in itertools.product((3, 4, 5), (2, 3), ScalingStrategy):
            for q1 in enumerate_k_cycles(n):
                assert inverse(scale_up(q1, k, strategy)) == scale_up(inverse(q1), k, strategy)

    @pytest.mark.parametrize("k, b", [(4, 1), (5, 1), (3, 2)])
    def test_every_candidate_has_the_girth_of_its_transpose(self, k, b):
        # girth(q1, j) = girth(q1^-1, m - j), incompatible matching
        # incompatible; no j filter, so every shift is covered
        incompatible = 0
        index = {q1: i for i, q1 in enumerate(enumerate_k_cycles(b * k))}
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=False)
            girths = shift_references(cfg)
            for q1, j in candidate_space(cfg):
                g = girths[j][index[q1]]
                assert g == girths[cfg.m - j][index[inverse(q1)]], (strategy, q1, j)
                incompatible += g == 0
        assert incompatible > 0

    @pytest.mark.parametrize("k, b", [(4, 1), (5, 1), (3, 2)])
    def test_relabelings_within_a_shift_keep_the_girth(self, k, b):
        # with n = b*k and rho(i) = n - 1 - i: (q1, j) has the girth of
        # (rho q1^-1 rho, j) under both scalings, and under block scaling
        # that of (r q1 r^-1, j) for every rotation r(i) = i + c mod n,
        # as the search module's docstring proves; no j filter
        n = b * k
        q1s = list(enumerate_k_cycles(n))
        index = {q1: i for i, q1 in enumerate(q1s)}
        moved, seen = 0, set()
        for strategy in ScalingStrategy:
            girths = shift_references(SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=False))
            seen |= {g for row in girths.values() for g in row}
            for q1 in q1s:
                inv = inverse(q1).image
                images = [Permutation(n - 1 - inv[n - 1 - i] for i in range(n))]
                if strategy is ScalingStrategy.BLOCK:
                    images += [Permutation((q1[(i - c) % n] + c) % n for i in range(n)) for c in range(1, n)]
                for image in images:
                    moved += image != q1
                    for j, row in girths.items():
                        assert row[index[image]] == row[index[q1]], (strategy, q1, image, j)
        assert moved > 0 and len(seen) > 2

    def test_relabelings_within_a_shift_keep_the_engine_girth_at_k7(self):
        # the same maps where block girths differ (6 and 8; at the sizes
        # above every block candidate has girth 6), on the level engine
        n = 7
        rows = _levels.cycle_rows(n)
        index = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
        inv = rows.argsort(axis=1)
        images = [n - 1 - inv[:, ::-1]]
        images += [(np.roll(rows, c, axis=1) + c) % n for c in range(1, n)]
        maps = [np.array([index[row] for row in map(tuple, image.tolist())]) for image in images]
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=7, strategy=strategy, j_range_filter=False)
            seen = set()
            for j, girths in engine_girths(cfg).items():
                seen |= set(girths.tolist())
                for to in maps if strategy is ScalingStrategy.BLOCK else maps[:1]:
                    assert (girths[to] == girths).all(), (strategy, j)
            assert len(seen) > 1, strategy

    @pytest.mark.parametrize("k, b", [(3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (3, 2), (4, 2)])
    def test_orbit_minima_are_the_least_q1_of_each_orbit(self, k, b):
        # the orbits closed under the two maps above, rho q1^-1 rho and
        # (block only) the rotation by 1, which generate the others
        n = b * k
        q1s = [q1.image for q1 in enumerate_k_cycles(n)]
        for strategy in ScalingStrategy:

            def moves(q1):
                inv = inverse(Permutation(q1)).image
                yield tuple(n - 1 - inv[n - 1 - i] for i in range(n))
                if strategy is ScalingStrategy.BLOCK:
                    yield tuple((q1[(i - 1) % n] + 1) % n for i in range(n))

            orbits, seen = [], set()
            for q1 in q1s:
                if q1 in seen:
                    continue
                orbit, todo = {q1}, [q1]
                while todo:
                    for image in moves(todo.pop()):
                        if image not in orbit:
                            orbit.add(image)
                            todo.append(image)
                orbits.append(orbit)
                seen |= orbit
            assert seen == set(q1s)
            got = [tuple(row) for row in _levels.orbit_minima(_levels.cycle_rows(n), strategy)[0].tolist()]
            assert got == sorted(min(orbit) for orbit in orbits), strategy
            assert len(got) < len(q1s) or n == 3, strategy

    @pytest.mark.parametrize(
        "n, strategy, digest",
        [
            pytest.param(n, ScalingStrategy(strategy), digest, id=f"{n}-{strategy}")
            for n, strategy, digest in ORBIT_MINIMA_DIGESTS
            if n <= 10
        ],
    )
    def test_orbit_minima_rows_are_pinned(self, n, strategy, digest):
        assert orbit_minima_digest(n, strategy) == digest

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_step_sequence_lemma(self, data):
        # on a single n-cycle q with step sequence d(x) = q(x) - x mod n:
        # r q r^-1, r(i) = i + c mod n, holds d(i - c) + i in column i
        # (so d(-c) in column 0), and phi(q) = rho q^-1 rho has the step
        # sequence x -> d(q^-1(n-1-x)), a permutation of d
        n = data.draw(st.integers(2, 12), label="n")
        order = data.draw(st.permutations(range(1, n)), label="cycle")
        c = data.draw(st.integers(0, n - 1), label="c")
        q = [0] * n
        for v, w in zip((0, *order), (*order, 0)):
            q[v] = w
        assert cycle_type(Permutation(q)) == (n,)
        d = [(q[x] - x) % n for x in range(n)]
        assert 0 not in d
        conjugate = [(q[(i - c) % n] + c) % n for i in range(n)]
        assert conjugate[0] == d[-c % n]
        assert conjugate == [(d[(i - c) % n] + i) % n for i in range(n)]
        inv = inverse(Permutation(q)).image
        phi = [n - 1 - inv[n - 1 - x] for x in range(n)]
        d_phi = [(phi[x] - x) % n for x in range(n)]
        assert d_phi == [d[inv[n - 1 - x]] for x in range(n)]
        assert sorted(d_phi) == sorted(d)

    def test_sampled_candidates_of_k4_b2(self):
        # 80,640 candidates per strategy: too many to build each one
        rng = random.Random(32)
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=4, b=2, strategy=strategy, j_range_filter=False)
            for q1, j in rng.sample(list(candidate_space(cfg)), 60):
                assert reference_girth(q1, j, cfg) == reference_girth(inverse(q1), cfg.m - j, cfg), (strategy, q1, j)

    @pytest.mark.parametrize("k, b", [(3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (3, 2), (4, 2)])
    def test_half_scan_equals_full_scan(self, k, b):
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            result = search_r3(cfg)
            got = (
                result.best_girth,
                result.witness_j,
                result.witness_q1.image,
                result.candidates_evaluated,
                result.skipped_incompatible,
            )
            assert got == full_scan(cfg), (strategy, j_filter)
            assert 2 * result.witness_j < cfg.m

    def test_witness_image_holds_python_ints(self):
        # k = 4 on the reference path, k = 5 on the engine's uint8 rows
        for k in (4, 5):
            image = search_r3(SearchConfig(k=k, strategy=ScalingStrategy.INTERLEAVED)).witness_q1.image
            assert isinstance(image, tuple)
            assert all(type(v) is int for v in image), image


def full_scan_snapshot(cfg: SearchConfig, monkeypatch) -> tuple:
    """`snapshot` of the search with the ceiling raised above every girth, so that no shift is skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(girthmax.search, "_girth_ceiling", lambda cfg: 2 * cfg.b * cfg.k + 2)
        return snapshot(search_r3(cfg))


class TestGirthCeiling:
    def test_closed_form_is_the_moore_bound_capped_at_2bk(self):
        for b, k in itertools.product((1, 2, 3), range(2, 13)):
            cfg = SearchConfig(k=k, b=b)
            moore = max(g for g in range(4, 2 * cfg.m, 2) if moore_bipartite(g, 3) <= 2 * cfg.m)
            assert girthmax.search._girth_ceiling(cfg) == min(2 * b * k, moore), (b, k)
        ceilings = [girthmax.search._girth_ceiling(SearchConfig(k=k)) for k in range(5, 13)]
        assert ceilings == [8, 10, 10, 12, 12, 12, 12, 14]

    def test_early_exit_equals_full_scan(self, monkeypatch):
        configs = [(k, 1, ScalingStrategy.INTERLEAVED) for k in range(3, 9)]
        configs += [(k, 1, ScalingStrategy.BLOCK) for k in range(3, 8)]
        configs += [(3, 2, strategy) for strategy in ScalingStrategy]
        stopped = 0
        for (k, b, strategy), j_filter in itertools.product(configs, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            got = snapshot(search_r3(cfg))
            assert got == full_scan_snapshot(cfg, monkeypatch), (k, b, strategy, j_filter)
            stopped += got[0] == girthmax.search._girth_ceiling(cfg)
        assert stopped >= 4

    def test_k7_scans_up_to_the_first_shift_at_the_ceiling(self, monkeypatch):
        # k = 7 interleaved scans 8, 9, 10, 11, 12, 13, 15, ...; the
        # winner reaches the ceiling of 10 at j = 10; the first shift's
        # best, 8, is one step below it, so every later batch is one shift
        scanned = []
        task = girthmax.search._task

        def spy(js, *args, **kwargs):
            scanned.append(js)
            return task(js, *args, **kwargs)

        monkeypatch.setattr(girthmax.search, "_task", spy)
        result = search_r3(SearchConfig(k=7, strategy=ScalingStrategy.INTERLEAVED))
        assert (result.best_girth, result.witness_j) == (10, 10)
        assert scanned == [(8,), (9,), (10,)]

    @pytest.fixture
    def tasks(self, monkeypatch):
        """The (shifts, floor, lo, hi) of every `_task` call of the searches, in order."""
        calls = []
        task = girthmax.search._task

        def spy(*args):
            calls.append(args[:4])
            return task(*args)

        monkeypatch.setattr(girthmax.search, "_task", spy)
        return calls

    def test_k6_scores_its_four_shifts_in_one_call(self, tasks):
        # k = 6 interleaved scans 7, 11, 13 and 17 on 72 orbit-minimum
        # rows from 6 roots, 4 * 72 * 6 = 1,728 (row, root) pairs, which
        # fit one 4,096-pair chunk, so the first batch holds all four
        result = search_r3(SearchConfig(k=6, strategy=ScalingStrategy.INTERLEAVED))
        assert (result.best_girth, result.witness_j, result.witness_q1.image) == (8, *TABLE_1_WINNERS[6])
        assert tasks == [((7, 11, 13, 17), 0, 0, 72)]

    def test_k5_first_batch_holds_every_shift_and_stops_at_the_ceiling(self, tasks):
        # k = 5 interleaved scores its 6 scanned shifts in one call, and
        # the merge stops at j = 7, the first at the ceiling of 8: two
        # progress calls, the second covering every candidate
        seen = []
        cfg = SearchConfig(k=5, strategy=ScalingStrategy.INTERLEAVED)
        result = search_r3(cfg, progress=lambda *args: seen.append(args))
        assert (result.best_girth, result.witness_j, result.witness_q1.image) == (8, *TABLE_1_WINNERS[5])
        assert [js for js, *_ in tasks] == [(6, 7, 8, 9, 11, 12)]
        total = sum(candidate_counts(cfg))
        assert seen == [(2 * 24, total, 6), (total, total, 8)]

    @pytest.mark.parametrize(
        "k, b, strategy",
        [(k, 1, ScalingStrategy.INTERLEAVED) for k in range(3, 9)]
        + [(k, 1, ScalingStrategy.BLOCK) for k in range(3, 8)]
        + [(k, 2, strategy) for k in (3, 4) for strategy in ScalingStrategy],
    )
    def test_exact_calls_capped_at_the_ceiling_are_exact(self, k, b, strategy):
        # `_levels.setup` caps the exact calls at level ceiling // 2 - 1:
        # for every q1 and every admissible shift, j filter on and off,
        # the capped girths equal the uncapped ones, which checks
        # `_girth_ceiling` on every candidate too. Those at the ceiling
        # take the capped value 2 * cap + 2, as at interleaved k = 5,
        # j = 7 and k = 7, j = 10
        at_ceiling = set()
        for j_filter in (True, False):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            _, t, roots = corpus(cfg)
            ceiling = girthmax.search._girth_ceiling(cfg)
            cap = ceiling // 2 - 1
            for j, exact in engine_girths(cfg).items():
                capped = _levels.shift_girths(t, j, roots, cap=cap)
                assert capped.tolist() == exact.tolist(), (j_filter, j)
                if (capped == 2 * cap + 2).any():
                    at_ceiling.add(j)
        if (k, b, strategy) == (5, 1, ScalingStrategy.INTERLEAVED):
            assert 7 in at_ceiling
        if (k, b, strategy) == (7, 1, ScalingStrategy.INTERLEAVED):
            assert 10 in at_ceiling


# the searches of TestLevelEngine and TestGirthCeiling, j filter on and off
FLOOR_CONFIGS = [
    SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
    for (k, b, strategy), j_filter in itertools.product(
        sorted(
            {(k, b, s) for k, b in ENGINE_SIZES for s in ScalingStrategy}
            | {(k, 1, ScalingStrategy.INTERLEAVED) for k in range(3, 9)}
            | {(k, 1, ScalingStrategy.BLOCK) for k in range(3, 8)}
        ),
        (True, False),
    )
]


class TestFloor:
    @pytest.fixture
    def floors(self, monkeypatch):
        """Every search on the engine; the positive floors its shifts were scored against, in order, one per shift.

        A batch of several shifts is one `batch_bests` call, and often
        one `survivors` call, at one floor, so the floor is recorded
        once for each shift of the batch.
        """
        monkeypatch.setattr(girthmax.search, "_LEVEL_MIN_CANDIDATES", 0)
        seen = []
        batch_bests = _levels.batch_bests

        def spy(tables, js, floor, *args):
            if floor:
                seen.extend([floor] * len(js))
            return batch_bests(tables, js, floor, *args)

        monkeypatch.setattr(_levels, "batch_bests", spy)
        return seen

    @staticmethod
    def answer(result) -> tuple:
        return (
            result.best_girth,
            result.witness_j,
            result.witness_q1.image,
            result.candidates_evaluated,
            result.skipped_incompatible,
        )

    def test_floored_search_equals_floor_free_scan(self, floors):
        for cfg in FLOOR_CONFIGS:
            assert self.answer(search_r3(cfg)) == full_scan(cfg), cfg
        assert len(floors) > 50 and min(floors) >= 4

    def test_floored_pool_equals_floor_free_scan(self, floors, monkeypatch):
        # the searches of at least 100 candidates; the pool takes its
        # floors from the shifts returned so far, in the forked workers,
        # so the spy sees none of them
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
        for cfg in (cfg for cfg in FLOOR_CONFIGS if cfg.b * cfg.k >= 5 or cfg.b > 1):
            pooled = search_r3(dataclasses.replace(cfg, worker_count=2))
            assert self.answer(pooled) == full_scan(cfg), cfg
        assert multiprocessing.active_children() == []

    def test_k7_block_drops_every_shift_below_the_winner(self, monkeypatch):
        # the engine scans the 78 orbit minima of the 720 q1; the 12
        # shifts j = 9..20 after the first hold girth 6 at best, the
        # running best. They come in the batches (9, 10), (11, 12, 13,
        # 15) and (16, ..., 24), each scored at shift 1 on 78 rows per
        # shift, and only the last batch, which holds j = 22, has
        # candidates above 6, none of them at a shift before 22. The
        # cascade leaves each batch few enough candidates for one exact
        # call (49 roots each), and none of the first two batches' is
        # above 6
        exact = []
        shift_girths = _levels.shift_girths

        def spy(t, j, roots, rows=None, cap=None, first=1):
            girths = shift_girths(t, j, roots, rows, cap, first)
            exact.append((j, t.shape[1], None if rows is None else rows.tolist(), girths.tolist()))
            return girths

        monkeypatch.setattr(_levels, "shift_girths", spy)
        result = search_r3(SearchConfig(k=7))
        assert (result.best_girth, result.witness_j) == (8, 22)
        assert [call[:2] for call in exact] == [(8, 78), (1, 2 * 78), (1, 4 * 78), (1, 8 * 78)]
        assert exact[0][2] == list(range(78))
        assert all(len(rows) * 49 <= _levels.CHUNK_ROOTS for _, _, rows, _ in exact[1:]), exact
        assert all(g <= 6 for _, _, _, girths in exact[1:3] for g in girths), exact[1:3]
        _, _, scored, girths = exact[3]
        # candidate c is row c % 78 of the batch's shift c // 78, and
        # j = 22 is its sixth
        shifts = [c // 78 for c, g in zip(scored, girths) if g > 6]
        assert min(shifts) == 5 and 0 < shifts.count(5) < 78

    @pytest.mark.parametrize("workers", [1, 2])
    def test_k7_block_floors_are_the_running_best(self, workers, submitted, monkeypatch):
        # each batch of shifts is scored at the largest girth of the
        # shifts before it, whatever the worker count: on 1 worker in one
        # call over the 78 rows, on 2 in two ranges of 39 rows, as the
        # parent submits them. The batches double in size, and 78 rows
        # allow up to 4096 // 78 = 52 shifts. The ceiling of 10 is never
        # met, and until the last batch the best, 6, is two steps below
        # it, so the sizes keep doubling: all 15 shifts run in 4 batches,
        # and the best, 8 from j = 22 on, is found in the last one
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
        task = girthmax.search._task

        def spy(*args):
            submitted.append(args[:4])
            return task(*args)

        if workers == 1:
            monkeypatch.setattr(girthmax.search, "_task", spy)
        search_r3(SearchConfig(k=7, worker_count=workers))
        batches = [(8,), (9, 10), (11, 12, 13, 15), (16, 17, 18, 19, 20, 22, 23, 24)]
        floors = [(js, 0 if js == (8,) else 6) for js in batches]
        ranges = [(0, 78)] if workers == 1 else [(0, 39), (39, 78)]
        assert submitted == [(js, floor, lo, hi) for js, floor in floors for lo, hi in ranges]

    def test_pool_submits_no_range_after_the_ceiling_shift(self, submitted, monkeypatch):
        # k = 5 interleaved meets its ceiling of 8 at j = 7, the second of
        # its 6 scanned shifts, whose 16 rows from 5 roots all fit one
        # exact call, so its one batch holds all 6, cut into 2 ranges.
        # k = 7 meets its ceiling of 10 at j = 10, the third of 15; its
        # 384 rows from 7 roots need more than one call, so each shift up
        # to there is cut into 2 ranges, and after the first the best is
        # one step below the ceiling, so every batch is one shift
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
        for k, ceiling, witness_j, batches in ((5, 8, 7, [(6, 7, 8, 9, 11, 12)]), (7, 10, 10, [(8,), (9,), (10,)])):
            submitted.clear()
            result = search_r3(SearchConfig(k=k, strategy=ScalingStrategy.INTERLEAVED, worker_count=2))
            assert (result.best_girth, result.witness_j) == (ceiling, witness_j), k
            assert [args[0] for args in submitted] == [js for js in batches for _ in range(2)], k

    @pytest.mark.parametrize(
        "k, b, engine", [(k, b, True) for k, b in ENGINE_SIZES] + [(3, 1, False), (4, 1, False)]
    )
    def test_merged_ranges_equal_the_whole_shift(self, k, b, engine):
        # the pool cuts a batch's rows into contiguous ranges, all scored
        # at one floor, and keeps per shift the first range at the
        # largest girth; the shifts cut into batches of 1, 2 or 3
        # consecutive shifts each give their own result. The engine reports (0, 0) for a
        # shift with no girth above the floor, while `_scan` ignores the
        # floor. The worker state is built as `search_r3` builds it
        task = girthmax.search._task
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            if engine:
                t, roots = engine_inputs(cfg)
                cap = girthmax.search._girth_ceiling(cfg) // 2 - 1
                firsts = functools.partial(_levels.first_level, b * k, k, strategy)
                rows, state = t.shape[1], (_levels.batch_bests, (t, roots, cap, firsts))
            else:
                q1s = list(enumerate_k_cycles(b * k))
                rows, state = len(q1s), (girthmax.search._scan, q1s, cfg)
            references = shift_references(cfg)
            shifts = list(references)
            batches = [tuple(shifts[i : i + size]) for size in (1, 2, 3) for i in range(0, len(shifts), size)]
            for js, floor in itertools.product(batches, (0, 4, 6, 8)):
                whole = []
                for want in map(references.get, js):
                    best = max(want)
                    whole.append((best, want.index(best)) if best > floor or not engine else (0, 0))
                for parts in range(1, min(5, rows) + 1):
                    cuts = [rows * w // parts for w in range(parts + 1)]
                    results = [task(js, floor, lo, hi, state) for lo, hi in zip(cuts, cuts[1:])]
                    merged = [max(shift, key=lambda r: r[0]) for shift in zip(*results)]
                    assert merged == whole, (strategy, j_filter, js, floor, parts)


    @pytest.mark.parametrize(
        "cfg",
        [
            SearchConfig(k=k, b=b, strategy=strategy)
            for (k, b), strategy in itertools.product([(5, 1), (6, 1), (7, 1), (3, 2)], ScalingStrategy)
        ],
        ids=config_id,
    )
    def test_batch_bests_on_a_row_range_are_the_best_girths_by_definition(self, cfg):
        # `_levels.batch_bests` on `setup`'s tables, for every batch of 1
        # to 3 consecutive scanned shifts, on all rows and on either half:
        # each shift's largest `reference_girth` over the range, with its
        # first row counted from 0, when that beats the floor, else girth
        # 0. The rows are the orbit minima that the search scans, so k = 7
        # needs 1,170 (block) or 5,760 (interleaved) `girth_bfs` calls
        # rather than the 10,800 of every q1
        ceiling = girthmax.search._girth_ceiling(cfg)
        q_rows, tables, _, _ = _levels.setup(cfg.b * cfg.k, cfg.k, cfg.strategy, ceiling)
        q1s = [Permutation(map(int, row)) for row in q_rows]
        shifts = [j for j in admissible(cfg) if 2 * j < cfg.m]
        references = {j: [reference_girth(q1, j, cfg) for q1 in q1s] for j in shifts}
        rows = len(q1s)
        batches = [tuple(shifts[i : i + size]) for size in (1, 2, 3) for i in range(len(shifts) - size + 1)]
        ranges = ((0, rows), (0, rows // 2), (rows // 2, rows))
        above = 0
        for js, (lo, hi), floor in itertools.product(batches, ranges, (0, 4, 6, 8)):
            got = _levels.batch_bests(tables, js, floor, lo, hi)
            assert len(got) == len(js), (js, lo, hi, floor)
            for j, (girth, row) in zip(js, got):
                want = references[j][lo:hi]
                best = max(want)
                if best > floor:
                    assert (girth, row) == (best, lo + want.index(best)), (j, lo, hi, floor)
                    above += 1
                else:
                    assert girth == 0, (j, lo, hi, floor)
        assert 0 < above

class TestCandidateCounts:
    def test_closed_form_counts_incompatible_constructions(self):
        # the definition: a candidate is skipped exactly when
        # construct_candidate raises; no girth is computed
        configs = [(k, b) for b in (1, 2, 3) for k in range(2, 7) if b * k <= 6]
        checked = skipped = 0
        for (k, b), strategy, j_filter in itertools.product(configs, ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            try:
                counts = candidate_counts(cfg)
            except NoValidShift:
                continue
            tally = [0, 0]
            for q1, j in candidate_space(cfg):
                try:
                    construct_candidate(q1, j, cfg)
                    tally[0] += 1
                except IncompatiblePermutations:
                    tally[1] += 1
            assert counts == tuple(tally), (k, b, strategy, j_filter)
            checked += 1
            skipped += tally[1]
        assert checked == 26 and skipped > 0


class TestSearchSmall:
    def test_k3_exhaustive_against_oracle(self):
        # 2 q1 x 2 shifts; check the maximum by hand
        cfg = SearchConfig(k=3)
        by_oracle = {
            (q1.image, j): girth_oracle(construct_candidate(q1, j, cfg).matrix()).value
            for q1, j in candidate_space(cfg)
        }
        assert len(by_oracle) == 4
        result = search_r3(cfg)
        assert result.best_girth == max(by_oracle.values()) == 6
        assert result.witness_j == 4

    def test_no_valid_shift(self):
        with pytest.raises(NoValidShift):
            search_r3(SearchConfig(k=2))

    def test_witness_reconstructs_best_girth(self):
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=4, strategy=strategy)
            result = search_r3(cfg)
            rebuilt = construct_candidate(result.witness_q1, result.witness_j, cfg)
            assert girth_bfs(rebuilt.matrix()).value == result.best_girth

    def test_result_copies_pickles_and_returns_from_a_process_pool(self):
        cfg = SearchConfig(k=4)
        result = search_r3(cfg)
        for copied in round_trips(result):
            assert copied == result
        assert dataclasses.asdict(result)["witness_q1"] == {"image": tuple(result.witness_q1)}
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            pooled = pool.submit(search_r3, cfg).result()
        assert snapshot(pooled) == snapshot(result)

    def test_each_q1_scaled_once(self, monkeypatch):
        # k = 5 interleaved runs on the engine over the image rows of the
        # 24 q1: only the winner becomes a Permutation, and none of the
        # (q1, j) candidates (288 of them)
        built = []
        init = Permutation.__init__

        def spy(self, image):
            built.append(1)
            init(self, image)

        monkeypatch.setattr(Permutation, "__init__", spy)
        result = search_r3(SearchConfig(k=5, strategy=ScalingStrategy.INTERLEAVED))
        assert result.candidates_evaluated == 288
        assert len(built) == 1

    def test_candidate_count_invariant(self):
        cfg = SearchConfig(k=4)
        result = search_r3(cfg)
        total = sum(1 for _ in candidate_space(cfg))
        assert result.candidates_evaluated == total - result.skipped_incompatible

    def test_skipped_candidates_are_counted(self):
        # interleaved scaling without the j filter collides with C_j
        # whenever some q1 displacement equals j
        cfg = SearchConfig(k=3, strategy=ScalingStrategy.INTERLEAVED, j_range_filter=False)
        result = search_r3(cfg)
        assert result.skipped_incompatible == 4
        total = sum(1 for _ in candidate_space(cfg))
        assert result.candidates_evaluated + result.skipped_incompatible == total

    def test_all_candidates_incompatible(self, monkeypatch):
        # at k=2 both unfiltered shifts collide with the scaled
        # transposition, and the search says so before it scans
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned a search with no compatible candidate")

        monkeypatch.setattr(girthmax.search, "_task", no_scan)
        cfg = SearchConfig(k=2, strategy=ScalingStrategy.INTERLEAVED, j_range_filter=False)
        with pytest.raises(NoValidShift, match="^every candidate pair was incompatible$"):
            search_r3(cfg)

    def test_family_girth_ceiling(self):
        # every candidate contains the 2*b*k cycles of p1 against p2
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=4, strategy=strategy)
            for q1, j in candidate_space(cfg):
                try:
                    b = construct_candidate(q1, j, cfg)
                except IncompatiblePermutations:
                    continue
                assert girth_bfs(b.matrix()).value <= 2 * cfg.b * cfg.k


# SHA-256 of the records of `test_search_answers_are_pinned`, one line
# per search: a change of any winner, count, report field or progress
# call moves it
SEARCH_ANSWERS_DIGEST = "7ccf51264b4d8c1d51f0c0a8f16afc6eb62c192373fba49823038472db24123e"


class TestDeterminism:
    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
        base = None
        for workers in (1, 2, 3):
            cfg = SearchConfig(k=5, strategy=ScalingStrategy.INTERLEAVED, worker_count=workers)
            result = search_r3(cfg)
            snapshot = (
                result.best_girth,
                result.witness_q1.image,
                result.witness_j,
                result.candidates_evaluated,
                result.skipped_incompatible,
            )
            if base is None:
                base = snapshot
            assert snapshot == base

    def test_search_answers_are_pinned(self):
        # b = 1, k = 2..8 and b = 2, k = 2..4, under both scalings, with
        # the j filter on and off: the report without its time and every
        # progress call, or the NoValidShift raised; a mismatch prints each
        # search's record, so that the search that moved can be named
        records = []
        for (k, b), strategy, j_filter in itertools.product(
            [(k, 1) for k in range(2, 9)] + [(k, 2) for k in range(2, 5)], ScalingStrategy, (True, False)
        ):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            calls = []
            try:
                report = report_dict(cfg, search_r3(cfg, progress=lambda *args: calls.append(args)))
                del report["elapsed_ms"]
            except NoValidShift as error:
                report = (type(error).__name__, str(error))
            records.append(repr((report, calls)))
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == SEARCH_ANSWERS_DIGEST, "\n".join(records)

    def test_tie_break_is_smallest_j_then_lex_q1(self):
        # the witness is the first candidate in (j ascending, q1 lex)
        # order whose girth is the maximum; k = 4 runs on the reference
        # path, k = 5 on the engine
        for k, strategy in itertools.product((4, 5), ScalingStrategy):
            cfg = SearchConfig(k=k, strategy=strategy)
            result = search_r3(cfg)
            uncut = []
            for q1, j in candidate_space(cfg):  # candidate_space is in scan order
                try:
                    b = construct_candidate(q1, j, cfg)
                except IncompatiblePermutations:
                    continue
                uncut.append((girth_bfs(b.matrix()).value, j, q1))
            best = max(g for g, _, _ in uncut)
            first = next((j, q1) for g, j, q1 in uncut if g == best)
            assert (result.best_girth, result.witness_j, result.witness_q1) == (best, *first)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every ProcessPoolExecutor started, in order."""
    seen = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return seen


@pytest.fixture
def submitted(monkeypatch):
    """The arguments, after the function, of every task submitted to a ProcessPoolExecutor, in order."""
    seen = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            seen.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return seen


class TestPool:
    def test_workers_capped_at_task_count(self, pools, monkeypatch):
        # a worker scores a range of q1 rows, so the workers are capped at
        # the rows: k = 3 has 2 q1, and 3 workers start 2 processes
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
        pooled = search_r3(SearchConfig(k=3, worker_count=3))
        assert pools == [2]
        serial = search_r3(SearchConfig(k=3))
        assert snapshot(pooled) == snapshot(serial)

    def test_small_search_starts_no_pool(self, pools):
        # k = 7 on the engine: 384 scanned rows per shift, below the pool
        # threshold, so a second worker is not started
        cfg = SearchConfig(k=7, strategy=ScalingStrategy.INTERLEAVED)
        serial = search_r3(cfg)
        two = search_r3(SearchConfig(k=7, strategy=ScalingStrategy.INTERLEAVED, worker_count=2))
        assert pools == []
        assert snapshot(two) == snapshot(serial)

    def test_pool_rule_counts_scanned_rows(self, pools, monkeypatch):
        # k = 5 interleaved scans 16 orbit-minimum rows of its 24 q1 per
        # shift, whatever the shifts
        cfg = SearchConfig(k=5, strategy=ScalingStrategy.INTERLEAVED, worker_count=2)
        for threshold, started in ((17, []), (16, [2])):
            monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", threshold)
            search_r3(cfg)
            assert pools == started, threshold

    def test_pool_threshold_splits_searches(self):
        # scanned q1 rows of one shift, which depend on n = b*k and the
        # scaling only: every search with n <= 9 and block n = 10 (k = 10,
        # and b = 2, k = 5) run in process; interleaved n = 10 (k = 10, and
        # b = 2, k = 5) runs on the pool
        block, interleaved = ScalingStrategy.BLOCK, ScalingStrategy.INTERLEAVED
        rows = {
            (n, s): len(_levels.orbit_minima(_levels.cycle_rows(n), s)[0])
            for n in range(5, 11)
            for s in (block, interleaved)
        }
        assert list(rows.values()) == [8, 16, 20, 72, 78, 384, 380, 2_616, 2_438, 20_352, 18_744, 182_400]
        pooled = rows.pop((10, interleaved))
        threshold = girthmax.search._POOL_MIN_ROWS
        assert max(rows.values()) < threshold <= pooled

    def test_concurrent_serial_searches_do_not_share_state(self):
        cfgs = [SearchConfig(k=k, strategy=s) for k in (4, 5) for s in ScalingStrategy]
        expected = [search_r3(cfg).witness_q1 for cfg in cfgs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(len(cfgs)) as threads:
                got = [r.witness_q1 for r in threads.map(search_r3, cfgs)]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert girthmax.search._STATE == ()

    def test_early_exit_on_the_pool(self, pools, monkeypatch):
        # both searches stop at a shift below their last one; the pool's
        # queued shifts are dropped and its workers are gone on return
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
        for k in (5, 7):
            cfg = SearchConfig(k=k, strategy=ScalingStrategy.INTERLEAVED)
            serial = search_r3(cfg)
            pooled = search_r3(SearchConfig(k=k, strategy=ScalingStrategy.INTERLEAVED, worker_count=2))
            assert snapshot(pooled) == snapshot(serial), k
            assert serial.best_girth == girthmax.search._girth_ceiling(cfg)
        assert pools == [2, 2]
        assert multiprocessing.active_children() == []

    def test_serial_search_starts_no_pool(self):
        code = (
            "import sys, girthmax\n"
            "girthmax.search_r3(girthmax.SearchConfig(k=4))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = run_python(code)
        assert proc.stdout.strip() == "False", proc.stderr

    def test_import_and_serial_searches_leave_multiprocessing_unloaded(self):
        code = (
            "import sys, girthmax\n"
            "for k in (4, 5):\n"
            "    girthmax.search_r3(girthmax.SearchConfig(k=k, strategy='interleaved'))\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_killed_worker_raises_broken_pool(self):
        code = (
            "from concurrent.futures.process import BrokenProcessPool\n"
            "search._LEVEL_MIN_CANDIDATES = 10**12\n"
            "try:\n"
            "    search.search_r3(search.SearchConfig(k=5, worker_count=2))\n"
            "except BrokenProcessPool:\n"
            "    print('BrokenProcessPool')\n"
        )
        proc = run_python(code, dying_workers=True)
        assert proc.stdout.strip() == "BrokenProcessPool", proc.stderr

    def test_killed_engine_worker_raises_broken_pool(self):
        code = (
            "from concurrent.futures.process import BrokenProcessPool\n"
            "search._LEVEL_MIN_CANDIDATES = 0\n"
            "try:\n"
            "    search.search_r3(search.SearchConfig(k=5, worker_count=2))\n"
            "except BrokenProcessPool:\n"
            "    print('BrokenProcessPool')\n"
        )
        proc = run_python(code, dying_workers=True)
        assert proc.stdout.strip() == "BrokenProcessPool", proc.stderr


class TestConfig:
    def test_m_is_derived(self):
        assert SearchConfig(k=5, b=2).m == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(k=1)
        with pytest.raises(ValueError):
            SearchConfig(k=3, b=0)
        with pytest.raises(ValueError):
            SearchConfig(k=3, worker_count=0)

    def test_strategy_coercion(self):
        assert SearchConfig(k=3, strategy="interleaved").strategy is ScalingStrategy.INTERLEAVED


class TestProgress:
    def test_progress_called(self):
        calls = []
        search_r3(SearchConfig(k=4), progress=lambda done, total, best: calls.append((done, total, best)))
        assert calls
        done, total, best = calls[-1]
        assert done == total
        assert best == 6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_k7_block_calls(self, workers, monkeypatch):
        # 15 scanned shifts of 1,440 candidates (each with its transpose);
        # girth 6 from the first, 8 from j = 22, the 13th; the ceiling
        # is 10, so every shift is scanned; identical on the pool
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
        calls = []
        cfg = SearchConfig(k=7, worker_count=workers)
        search_r3(cfg, progress=lambda done, total, best: calls.append((done, total, best)))
        assert calls == [(1440 * i, 21600, 6 if i < 13 else 8) for i in range(1, 16)]

    def test_early_exit_reports_every_candidate_covered(self):
        # k = 5 interleaved stops at j = 7, the second of its 6 scanned
        # shifts, where it reaches the ceiling of 8
        calls = []
        cfg = SearchConfig(k=5, strategy=ScalingStrategy.INTERLEAVED)
        search_r3(cfg, progress=lambda done, total, best: calls.append((done, total, best)))
        assert calls == [(48, 288, 6), (288, 288, 8)]


def test_one_based_rendering_in_reports():
    result = search_r3(SearchConfig(k=3))
    assert one_based(result.witness_q1) == "2 3 1"
