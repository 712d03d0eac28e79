import concurrent.futures
import dataclasses
import functools
import itertools
import multiprocessing
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import girthmax.search
from girthmax import _levels
from girthmax.bounds import moore_bipartite
from girthmax.btu import IncompatiblePermutations
from girthmax.girth import girth_bfs, girth_oracle
from girthmax.perm import Permutation, ScalingStrategy, enumerate_k_cycles, inverse, one_based, scale_up
from girthmax.search import (
    NoValidShift,
    SearchConfig,
    candidate_counts,
    construct_candidate,
    search_r3,
    valid_shifts,
)

from conftest import candidate_space, reference_girth, run_python


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


def engine_girth(q1: Permutation, j: int, cfg: SearchConfig) -> int:
    p, pinv = _levels.images([q1.image], cfg.k, cfg.strategy)
    return int(_levels.shift_girths(p, pinv, j, girthmax.search._root_count(cfg))[0])


def snapshot(result):
    return (
        result.best_girth,
        result.witness_j,
        result.witness_q1,
        result.candidates_evaluated,
        result.skipped_incompatible,
    )


@functools.cache
def shift_references(cfg: SearchConfig) -> dict[int, list[int]]:
    """`reference_girth` of every candidate of every admissible shift j, by q1 in enumeration order."""
    q1s = list(enumerate_k_cycles(cfg.b * cfg.k))
    shifts = valid_shifts(cfg.m, cfg.b * cfg.k if cfg.j_range_filter else 0)
    return {j: [reference_girth(q1, j, cfg) for q1 in q1s] for j in shifts}


def engine_inputs(cfg: SearchConfig) -> tuple:
    """(p, pinv, roots) of the level engine for a search."""
    p, pinv = _levels.images(_levels.cycle_rows(cfg.b * cfg.k), cfg.k, cfg.strategy)
    return p, pinv, girthmax.search._root_count(cfg)


ENGINE_SIZES = [(3, 1), (4, 1), (5, 1), (6, 1), (3, 2)]


class TestLevelEngine:
    @pytest.mark.parametrize("k, b", ENGINE_SIZES)
    def test_girths_match_girth_bfs_on_every_candidate(self, k, b):
        incompatible = 0
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            p, pinv, roots = engine_inputs(cfg)
            for j, want in shift_references(cfg).items():
                assert _levels.shift_girths(p, pinv, j, roots).tolist() == want, (strategy, j)
                incompatible += want.count(0)
        assert incompatible > 0

    @pytest.mark.parametrize("k, b", ENGINE_SIZES)
    def test_capped_walks_mark_the_girths_up_to_twice_the_cap(self, k, b):
        # from every root: min(girth, 2 * cap + 2), so a candidate is
        # marked (<= 2 * cap) exactly when its girth is at most 2 * cap
        scratch = _levels.Scratch()
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            p, pinv, roots = engine_inputs(cfg)
            for (j, want), cap in itertools.product(shift_references(cfg).items(), (1, 2, 3, 4, 5)):
                got = _levels.chunk_girths(p, pinv, j, np.arange(roots), scratch, cap).tolist()
                assert got == [min(g, 2 * cap + 2) for g in want], (strategy, j, cap)

    @pytest.mark.parametrize("chunk_roots", [_levels.CHUNK_ROOTS, 64])
    @pytest.mark.parametrize("k, b", ENGINE_SIZES)
    def test_survivors_are_the_candidates_above_the_floor(self, k, b, chunk_roots, monkeypatch):
        # 64 (row, root) pairs per chunk split the roots into several
        # groups and the rows into several chunks
        monkeypatch.setattr(_levels, "CHUNK_ROOTS", chunk_roots)
        kept = dropped = 0
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            p, pinv, roots = engine_inputs(cfg)
            for (j, want), floor in itertools.product(shift_references(cfg).items(), (0, 4, 6, 8)):
                got = _levels.survivors(p, pinv, j, roots, floor).tolist()
                assert got == [i for i, g in enumerate(want) if g > floor], (strategy, j, floor)
                kept += len(got)
                dropped += len(want) - len(got)
        assert kept and dropped

    def test_survivors_scored_exactly_in_larger_searches(self):
        # block k = 7 and interleaved k = 8 split their roots and rows over
        # several groups and chunks at the default chunk size; the
        # survivors are checked against the engine's exact girths
        scratch = _levels.Scratch()
        for k, strategy in ((7, ScalingStrategy.BLOCK), (8, ScalingStrategy.INTERLEAVED)):
            cfg = SearchConfig(k=k, strategy=strategy)
            p, pinv, roots = engine_inputs(cfg)
            for j in valid_shifts(cfg.m, k)[:6]:
                girths = _levels.shift_girths(p, pinv, j, roots, scratch)
                for floor in (6, 8):
                    want = np.flatnonzero(girths > floor)
                    got = _levels.survivors(p, pinv, j, roots, floor, scratch)
                    assert got.tolist() == want.tolist(), (k, strategy, j, floor)
                    assert _levels.shift_girths(p, pinv, j, roots, scratch, rows=got).tolist() == girths[want].tolist()

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
        # walked from every root: the groups run over 0..roots-1 without
        # gap or overlap, each at least twice the one before
        monkeypatch.setattr(_levels, "CHUNK_ROOTS", chunk_roots)
        groups = []
        girths = _levels._girths

        def spy(p, pinv, j, rows, roots, *args):
            groups.append(roots.tolist())
            return girths(p, pinv, j, rows, roots, *args)

        monkeypatch.setattr(_levels, "_girths", spy)
        p, pinv, roots = engine_inputs(SearchConfig(k=k, strategy=strategy))
        assert len(_levels.survivors(p, pinv, j, roots, floor)) > 0
        assert sum(groups, []) == list(range(roots)), groups
        assert all(len(b) >= 2 * len(a) for a, b in zip(groups, groups[1:-1])), groups
        if chunk_roots == 1:
            assert [len(g) for g in groups[:-1]] == [2**i for i in range(len(groups) - 1)], groups

    def test_rows_select_candidates(self):
        cfg = SearchConfig(k=5)
        p, pinv, roots = engine_inputs(cfg)
        girths = _levels.shift_girths(p, pinv, 7, roots)
        for rows in (np.arange(1, len(p)), np.arange(len(p) - 1), np.array([0, 5, 7]), np.arange(0)):
            assert _levels.shift_girths(p, pinv, 7, roots, rows=rows).tolist() == girths[rows].tolist()

    def test_image_rows_are_contiguous(self):
        # a slice of rows is then a view, which chunk_girths gathers on
        # without a copy at every level
        for strategy in ScalingStrategy:
            p, pinv = _levels.images(_levels.cycle_rows(5), 5, strategy)
            assert p.flags.c_contiguous and pinv.flags.c_contiguous, strategy

    def test_image_rows_invert(self):
        # pinv[r, p[r, x]] == x on the orbit minima that the engine scans,
        # and on random uint16 rows (k = 17, m = 289)
        rng = np.random.default_rng(17)
        cases = [(_levels.orbit_minima(_levels.cycle_rows(k), s), k, s) for k in range(5, 9) for s in ScalingStrategy]
        cases += [(np.array([rng.permutation(17) for _ in range(20)]), 17, s) for s in ScalingStrategy]
        for q_rows, k, strategy in cases:
            p, pinv = _levels.images(q_rows, k, strategy)
            assert pinv.dtype == ("uint16" if k == 17 else "uint8"), (k, strategy)
            every = np.broadcast_to(np.arange(k * k), p.shape)
            assert (np.take_along_axis(pinv, p.astype(np.intp), axis=1) == every).all(), (k, strategy)

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
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
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

    def test_cycle_rows_match_enumerate_k_cycles(self):
        for n in range(2, 10):
            rows = _levels.cycle_rows(n)
            assert rows.dtype == "uint8"
            assert rows.tolist() == [list(q1.image) for q1 in enumerate_k_cycles(n)], n

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
    n = cfg.b * cfg.k
    q_rows = _levels.cycle_rows(n)
    p, pinv = _levels.images(q_rows, cfg.k, cfg.strategy)
    roots = girthmax.search._root_count(cfg)
    best = (0, 0, ())
    evaluated = skipped = 0
    for j in valid_shifts(cfg.m, n if cfg.j_range_filter else 0):
        girths = _levels.shift_girths(p, pinv, j, roots).tolist()
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
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=False)
            for q1, j in candidate_space(cfg):
                g = reference_girth(q1, j, cfg)
                assert g == reference_girth(inverse(q1), cfg.m - j, cfg), (strategy, q1, j)
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
            p, pinv, roots = engine_inputs(cfg)
            seen = set()
            for j in valid_shifts(cfg.m, 0):
                girths = _levels.shift_girths(p, pinv, j, roots)
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
            got = [tuple(row) for row in _levels.orbit_minima(_levels.cycle_rows(n), strategy).tolist()]
            assert got == sorted(min(orbit) for orbit in orbits), strategy
            assert len(got) < len(q1s) or n == 3, strategy

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
        # winner reaches the ceiling of 10 at j = 10
        scanned = []
        level_scan = girthmax.search._level_scan

        def spy(j, *args, **kwargs):
            scanned.append(j)
            return level_scan(j, *args, **kwargs)

        monkeypatch.setattr(girthmax.search, "_level_scan", spy)
        result = search_r3(SearchConfig(k=7, strategy=ScalingStrategy.INTERLEAVED))
        assert (result.best_girth, result.witness_j) == (10, 10)
        assert scanned == [8, 9, 10]


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
        """Every search on the engine; the positive floors its shifts were scored against, in order."""
        monkeypatch.setattr(girthmax.search, "_LEVEL_MIN_CANDIDATES", 0)
        seen = []
        survivors = _levels.survivors

        def spy(p, pinv, j, roots, floor, *args):
            seen.append(floor)
            return survivors(p, pinv, j, roots, floor, *args)

        monkeypatch.setattr(_levels, "survivors", spy)
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
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
        for cfg in (cfg for cfg in FLOOR_CONFIGS if cfg.b * cfg.k >= 5 or cfg.b > 1):
            pooled = search_r3(dataclasses.replace(cfg, worker_count=2))
            assert self.answer(pooled) == full_scan(cfg), cfg
        assert multiprocessing.active_children() == []

    def test_k7_block_drops_every_shift_below_the_winner(self, monkeypatch):
        # the engine scans the 78 orbit minima of the 720 q1; the 12
        # shifts j = 9..20 after the first hold girth 6 at best, the
        # running best: none of their candidates is scored exactly
        exact = []
        shift_girths = _levels.shift_girths

        def spy(p, pinv, j, roots, scratch=None, rows=None):
            exact.append((j, len(p) if rows is None else len(rows)))
            return shift_girths(p, pinv, j, roots, scratch, rows)

        monkeypatch.setattr(_levels, "shift_girths", spy)
        result = search_r3(SearchConfig(k=7))
        assert (result.best_girth, result.witness_j) == (8, 22)
        assert exact[0] == (8, 78)
        assert [j for j, rows in exact if rows] == [8, 22]
        assert 0 < dict(exact)[22] < 78

    @pytest.mark.parametrize("workers", [1, 2])
    def test_k7_block_floors_are_the_running_best(self, workers, submitted, monkeypatch):
        # each shift is scored at the largest girth of the shifts before
        # it, whatever the worker count: on 1 worker in one call over the
        # 78 rows, on 2 in two ranges of 39 rows, as the parent submits
        # them; the ceiling of 10 is never met, so all 15 shifts run
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
        level_scan = girthmax.search._level_scan

        def spy(*args):
            submitted.append(args[:4])
            return level_scan(*args)

        if workers == 1:
            monkeypatch.setattr(girthmax.search, "_level_scan", spy)
        search_r3(SearchConfig(k=7, worker_count=workers))
        shifts = [8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 22, 23, 24]
        floors = [(j, 0 if j == 8 else 6 if j <= 22 else 8) for j in shifts]
        ranges = [(0, 78)] if workers == 1 else [(0, 39), (39, 78)]
        assert submitted == [(j, floor, lo, hi) for j, floor in floors for lo, hi in ranges]

    def test_pool_submits_no_range_after_the_ceiling_shift(self, submitted, monkeypatch):
        # k = 5 interleaved meets its ceiling of 8 at j = 7, the second of
        # its 6 scanned shifts, and k = 7 its ceiling of 10 at j = 10, the
        # third of 15; each shift up to there is cut into 2 ranges
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
        for k, ceiling, shifts in ((5, 8, [6, 7]), (7, 10, [8, 9, 10])):
            submitted.clear()
            result = search_r3(SearchConfig(k=k, strategy=ScalingStrategy.INTERLEAVED, worker_count=2))
            assert (result.best_girth, result.witness_j) == (ceiling, shifts[-1]), k
            assert [args[0] for args in submitted] == [j for j in shifts for _ in range(2)], k

    @pytest.mark.parametrize(
        "k, b, engine", [(k, b, True) for k, b in ENGINE_SIZES] + [(3, 1, False), (4, 1, False)]
    )
    def test_merged_ranges_equal_the_whole_shift(self, k, b, engine):
        # the pool cuts a shift's rows into contiguous ranges, all scored
        # at one floor, and keeps the first range at the largest girth;
        # the engine reports (0, 0) for a shift with no girth above the
        # floor, while `_scan` ignores the floor
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            if engine:
                p, pinv, roots = engine_inputs(cfg)
                scan, state = girthmax.search._level_scan, (p, pinv, roots, _levels.Scratch())
            else:
                scan, state = girthmax.search._scan, (list(enumerate_k_cycles(b * k)), cfg)
            rows = len(state[0])
            for (j, want), floor in itertools.product(shift_references(cfg).items(), (0, 4, 6, 8)):
                best = max(want)
                whole = (best, want.index(best)) if best > floor or not engine else (0, 0)
                for parts in range(1, min(5, rows) + 1):
                    cuts = [rows * w // parts for w in range(parts + 1)]
                    results = [scan(j, floor, lo, hi, state) for lo, hi in zip(cuts, cuts[1:])]
                    assert max(results, key=lambda r: r[0]) == whole, (strategy, j_filter, j, floor, parts)


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

        monkeypatch.setattr(girthmax.search, "_scan", no_scan)
        monkeypatch.setattr(girthmax.search, "_level_scan", no_scan)
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


class TestDeterminism:
    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
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
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
        pooled = search_r3(SearchConfig(k=3, worker_count=3))
        assert pools == [2]
        serial = search_r3(SearchConfig(k=3))
        assert snapshot(pooled) == snapshot(serial)

    def test_small_search_starts_no_pool(self, pools):
        # k = 7 on the engine: 10,800 scanned candidates * 7 roots, below
        # the pool threshold, so a second worker is not started
        cfg = SearchConfig(k=7, strategy=ScalingStrategy.INTERLEAVED)
        serial = search_r3(cfg)
        two = search_r3(SearchConfig(k=7, strategy=ScalingStrategy.INTERLEAVED, worker_count=2))
        assert pools == []
        assert snapshot(two) == snapshot(serial)

    def test_pool_rule_counts_scanned_pairs(self, pools, monkeypatch):
        # k = 5 interleaved scans 16 orbit-minimum rows of its 24 q1 per
        # shift, from 5 roots: 80 (row, root) pairs, whatever the shifts
        cfg = SearchConfig(k=5, strategy=ScalingStrategy.INTERLEAVED, worker_count=2)
        for threshold, started in ((81, []), (80, [2])):
            monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", threshold)
            search_r3(cfg)
            assert pools == started, threshold

    def test_pool_threshold_splits_searches(self):
        # (row, root) pairs of one shift: every Table 1 search
        # (interleaved, k <= 9), block k <= 9 and block b = 2, k = 5 run
        # in process; interleaved and block k = 10 and interleaved b = 2,
        # k = 5 run on the pool
        rows = functools.cache(lambda n, strategy: len(_levels.orbit_minima(_levels.cycle_rows(n), strategy)))

        def pairs(k, b=1, strategy=ScalingStrategy.INTERLEAVED):
            cfg = SearchConfig(k=k, b=b, strategy=strategy)
            return rows(b * k, strategy) * girthmax.search._root_count(cfg)

        block = ScalingStrategy.BLOCK
        assert [rows(n, s) for n in (9, 10) for s in (ScalingStrategy.INTERLEAVED, block)] == [
            20_352,
            2_438,
            182_400,
            18_744,
        ]
        in_process = [pairs(k, 1, s) for k in range(5, 10) for s in ScalingStrategy] + [pairs(5, 2, block)]
        pooled = [pairs(10), pairs(10, 1, block), pairs(5, 2)]
        threshold = girthmax.search._POOL_MIN_PAIRS
        assert max(in_process) < threshold <= min(pooled)

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
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
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
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
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
