import concurrent.futures
import itertools
import random
import sys
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import girthmax.search
from girthmax import _levels
from girthmax.btu import IncompatiblePermutations
from girthmax.girth import girth_bfs, girth_oracle
from girthmax.perm import Permutation, ScalingStrategy, enumerate_k_cycles, inverse, one_based, scale_up
from girthmax.search import (
    NoValidShift,
    SearchConfig,
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


class TestLevelEngine:
    @pytest.mark.parametrize("k, b", [(3, 1), (4, 1), (5, 1), (6, 1), (3, 2)])
    def test_girths_match_girth_bfs_on_every_candidate(self, k, b):
        incompatible = 0
        for strategy, j_filter in itertools.product(ScalingStrategy, (True, False)):
            cfg = SearchConfig(k=k, b=b, strategy=strategy, j_range_filter=j_filter)
            q1s = list(enumerate_k_cycles(b * k))
            p, pinv = _levels.images(_levels.cycle_rows(b * k), k, strategy)
            roots = girthmax.search._root_count(cfg)
            for j in valid_shifts(cfg.m, b * k if j_filter else 0):
                want = [reference_girth(q1, j, cfg) for q1 in q1s]
                assert _levels.shift_girths(p, pinv, j, roots).tolist() == want, (strategy, j)
                incompatible += want.count(0)
        assert incompatible > 0

    @pytest.mark.parametrize("k, b", [(3, 1), (4, 1), (5, 1), (6, 1), (3, 2)])
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


class TestSearchSmall:
    def test_k3_exhaustive_against_oracle(self):
        # 2 q1 x 2 shifts; check the maximum by hand
        cfg = SearchConfig(k=3)
        by_oracle = {
            (q1.image, j): girth_oracle(construct_candidate(q1, j, cfg).to_bipartite()).value
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
            assert girth_bfs(rebuilt.to_bipartite()).value == result.best_girth

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

    def test_all_candidates_incompatible(self):
        # at k=2 both unfiltered shifts collide with the scaled transposition
        cfg = SearchConfig(k=2, strategy=ScalingStrategy.INTERLEAVED, j_range_filter=False)
        with pytest.raises(NoValidShift):
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
                assert girth_bfs(b.to_bipartite()).value <= 2 * cfg.b * cfg.k


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
                uncut.append((girth_bfs(b.to_bipartite()).value, j, q1))
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


class TestPool:
    def test_workers_capped_at_task_count(self, pools, monkeypatch):
        # k = 4 has 4 shifts (5, 7, 9, 11) of which 2j < 16 scans 2: 2 tasks
        monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", 0)
        pooled = search_r3(SearchConfig(k=4, worker_count=8))
        assert pools == [2]
        serial = search_r3(SearchConfig(k=4))
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
        # k = 5 interleaved scans 6 of its 12 shifts: 6 * 24 q1 * 5 roots
        # = 720 pairs, against 1,440 over the full space
        cfg = SearchConfig(k=5, strategy=ScalingStrategy.INTERLEAVED, worker_count=2)
        for threshold, started in ((721, []), (720, [2])):
            monkeypatch.setattr(girthmax.search, "_POOL_MIN_PAIRS", threshold)
            search_r3(cfg)
            assert pools == started, threshold

    def test_pool_threshold_splits_searches(self):
        # scanned (candidate, root) pairs: every Table 1 search
        # (interleaved, k <= 8) and block k = 7 run in process; block
        # k = 8 and interleaved k = 9 run on the pool
        def pairs(k, roots):
            m = k * k
            scanned = sum(1 for j in range(k + 1, m - k) if gcd(j, m) == 1 and 2 * j < m)
            return scanned * factorial(k - 1) * roots

        threshold = girthmax.search._POOL_MIN_PAIRS
        assert max(pairs(8, 8), pairs(7, 49)) < threshold <= min(pairs(8, 64), pairs(9, 9))

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

    def test_serial_search_starts_no_pool(self):
        code = (
            "import sys, girthmax\n"
            "girthmax.search_r3(girthmax.SearchConfig(k=4))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = run_python(code)
        assert proc.stdout.strip() == "False", proc.stderr

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


def test_one_based_rendering_in_reports():
    result = search_r3(SearchConfig(k=3))
    assert one_based(result.witness_q1) == "2 3 1"
