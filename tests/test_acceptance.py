"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines.
"""

import io
import os
import random
import time
from contextlib import redirect_stdout

import pytest

import girthmax.search
from girthmax.btu import Btu, btu_from_matrix, read_alist, write_alist
from girthmax.bounds import hoory_lower
from girthmax.cli import (
    TABLE_GIRTHS,
    format_report,
    main,
)
from girthmax.girth import girth_bfs, girth_oracle
from girthmax.perm import Permutation, ScalingStrategy, circulant, identity, relative_cycle_type
from girthmax.search import SearchConfig, construct_candidate, search_r3

from conftest import candidate_space, networkx_girth, random_btu

WORKERS = max(1, min(4, os.cpu_count() or 1))

TABLE_2 = "g   n0(g,3)\n4   6\n6   14\n8   30\n10  62\n12  126\n14  254\n"
TABLE_3 = (
    "g   lower  upper  improved_upper\n"
    "4   3      15     8\n"
    "6   7      63     32\n"
    "8   15     255    128\n"
    "10  31     1023   512\n"
    "12  63     4095   2048\n"
    "14  127    16383  8192\n"
)
TABLE_4 = "girth  min_N\n6      5\n8      9\n10     39\n12     97\n"
TABLE_5 = (
    "girth  min_q  n     p  degree\n"
    "6      5      120   2  3\n"
    "8      11     1320  2  3\n"
    "10     11     1320  2  3\n"
    "12     13     2184  2  3\n"
)

# (best girth, witness j, witness q1 image, 0-based) of the interleaved
# full-enumeration searches: the tie-break winner, not only its girth
WITNESSES = {
    8: (10, 9, (1, 6, 3, 0, 5, 2, 7, 4)),
    9: (10, 10, (4, 0, 6, 2, 8, 3, 7, 1, 5)),
    10: (10, 11, (1, 4, 3, 6, 5, 8, 7, 0, 9, 2)),
}

# (best girth, witness j, witness q1 image, 0-based, candidates
# evaluated) of the block-scaling searches, which skip no candidate
BLOCK_WINNERS = {
    5: (6, 6, (1, 2, 3, 4, 0), 288),
    6: (6, 7, (1, 2, 3, 4, 5, 0), 960),
    7: (8, 22, (1, 2, 5, 6, 0, 3, 4), 21_600),
    8: (8, 25, (1, 2, 3, 6, 7, 0, 4, 5), 120_960),
}

_search_cache: dict[tuple[int, ScalingStrategy, int], object] = {}


def run_search(k: int, strategy: ScalingStrategy, workers: int = WORKERS):
    key = (k, strategy, workers)
    if key not in _search_cache:
        _search_cache[key] = search_r3(
            SearchConfig(k=k, strategy=strategy, worker_count=workers)
        )
    return _search_cache[key]


def verdict(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def _cli_stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def test_criterion_1_bound_tables_exact():
    started = time.perf_counter()
    t2 = _cli_stdout(["bounds", "--table", "2"])
    t3 = _cli_stdout(["bounds", "--table", "3"])
    t4 = _cli_stdout(["tables", "--which", "4"])
    t5 = _cli_stdout(["bounds", "--table", "5"])
    elapsed = time.perf_counter() - started
    ok = (
        t2 == TABLE_2
        and t3 == TABLE_3
        and t4 == "table 4: irregular-matrix reference girths\n" + TABLE_4
        and t5 == TABLE_5
        and elapsed < 1.0
    )
    verdict("1 bound tables byte-exact", ok, f"{elapsed * 1000:.0f} ms")


def test_criterion_2_hoory_values():
    ok = hoory_lower(12, 3) == 63 and hoory_lower(10, 3) == 31 and hoory_lower(8, 3) == 15
    verdict("2 per-side lower bounds", ok)


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_criterion_3_published_girths(k):
    published = TABLE_GIRTHS[k]
    result = run_search(k, ScalingStrategy.INTERLEAVED)
    girth = result.best_girth
    note = f"k={k}: interleaved girth {girth}, published {published}"
    if girth < published:
        # the criterion fails only if both strategies fall short
        block = run_search(k, ScalingStrategy.BLOCK).best_girth
        note += f", block girth {block}"
        girth = max(girth, block)
    if girth > published:
        note += " [exceeds published value]"
    verdict(f"3 search girth k={k}", girth >= published, note)


@pytest.mark.parametrize("k", [8, 9, 10])
def test_criterion_3_pinned_witness(k):
    result = run_search(k, ScalingStrategy.INTERLEAVED)
    got = (result.best_girth, result.witness_j, result.witness_q1.image)
    published = TABLE_GIRTHS[k]
    note = f"k={k}: (girth, j, q1) {got}, published girth {published}, {result.elapsed:.1f} s"
    verdict(f"3 pinned witness k={k}", got == WITNESSES[k] and got[0] >= published, note)


@pytest.mark.parametrize("k", [7, 8])
def test_criterion_3_winner_girth_matches_networkx(k):
    # rebuilt from the cached criterion-3 search, so no new search runs
    result = run_search(k, ScalingStrategy.INTERLEAVED)
    cfg = SearchConfig(k=k, strategy=ScalingStrategy.INTERLEAVED)
    winner = construct_candidate(result.witness_q1, result.witness_j, cfg)
    ours = girth_bfs(winner.matrix()).value
    theirs = networkx_girth(winner)
    verdict(
        f"3 winner girth k={k} equals networkx",
        ours == theirs == result.best_girth,
        f"girth_bfs {ours}, networkx {theirs}, search {result.best_girth}",
    )


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_criterion_3_pinned_block_witness(k):
    result = run_search(k, ScalingStrategy.BLOCK)
    got = (result.best_girth, result.witness_j, result.witness_q1.image, result.candidates_evaluated)
    verdict(
        f"3 pinned block witness k={k}",
        got == BLOCK_WINNERS[k] and result.skipped_incompatible == 0,
        f"(girth, j, q1, evaluated) {got}, skipped {result.skipped_incompatible}, {result.elapsed:.2f} s",
    )


def test_criterion_3_block_winner_girth_matches_networkx():
    # rebuilt from the cached k = 8 block search
    result = run_search(8, ScalingStrategy.BLOCK)
    winner = construct_candidate(result.witness_q1, result.witness_j, SearchConfig(k=8))
    theirs = networkx_girth(winner)
    verdict(
        "3 block winner girth k=8 equals networkx",
        theirs == result.best_girth == BLOCK_WINNERS[8][0],
        f"networkx {theirs}, search {result.best_girth}",
    )


def test_criterion_3_pinned_witness_b2_k5():
    # m = 50: the winner meets the girth ceiling at the first scanned
    # shift, so the search stops there; 1 worker, since a pool would
    # finish the shifts already running before it returns
    cfg = SearchConfig(k=5, b=2, strategy=ScalingStrategy.INTERLEAVED)
    result = search_r3(cfg)
    got = (
        result.best_girth,
        result.witness_j,
        result.witness_q1.image,
        result.candidates_evaluated,
        result.skipped_incompatible,
    )
    theirs = networkx_girth(construct_candidate(result.witness_q1, result.witness_j, cfg))
    ceiling = girthmax.search._girth_ceiling(cfg)
    verdict(
        "3 pinned witness b=2 k=5",
        got == (10, 11, (1, 4, 7, 2, 9, 6, 3, 0, 5, 8), 4_354_560, 0) and theirs == ceiling == got[0],
        f"(girth, j, q1, evaluated, skipped) {got}, networkx {theirs}, ceiling {ceiling}, {result.elapsed:.1f} s",
    )


@pytest.mark.extended
def test_criterion_3_pinned_witness_k11():
    # m = 121, 1 worker: about 25 s and 0.55 GB; run with
    # `pytest -m extended`
    cfg = SearchConfig(k=11, strategy=ScalingStrategy.INTERLEAVED)
    result = search_r3(cfg)
    got = (result.best_girth, result.witness_j, result.witness_q1.image)
    ours = girth_bfs(construct_candidate(result.witness_q1, result.witness_j, cfg).matrix()).value
    verdict(
        "3 pinned witness k=11",
        got == (10, 12, (1, 3, 5, 8, 6, 10, 7, 9, 2, 0, 4)) and ours == got[0],
        f"(girth, j, q1) {got}, girth_bfs {ours}, {result.elapsed:.0f} s",
    )


def test_criterion_4_family_ceiling_in_loop():
    # exact per-candidate assertion for k <= 5
    checked = 0
    for k in (3, 4, 5):
        cfg = SearchConfig(k=k, strategy=ScalingStrategy.INTERLEAVED)
        for q1, j in candidate_space(cfg):
            try:
                b = construct_candidate(q1, j, cfg)
            except Exception:
                continue
            assert girth_bfs(b.matrix()).value <= 2 * cfg.b * cfg.k
            checked += 1
    verdict("4 family girth ceiling (k<=5, in-loop)", checked > 0, f"{checked} candidates")


def test_criterion_4_family_ceiling_sampled():
    rng = random.Random(41)
    checked = 0
    for k in (6, 7, 8):
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=k, strategy=strategy)
            pairs = list(candidate_space(cfg))
            for q1, j in rng.sample(pairs, 60):
                try:
                    b = construct_candidate(q1, j, cfg)
                except Exception:
                    continue
                assert girth_bfs(b.matrix()).value <= 2 * cfg.b * cfg.k
                checked += 1
    verdict("4 family girth ceiling (k=6..8, sampled)", checked > 0, f"{checked} candidates")


def test_criterion_5_engine_oracle_equivalence():
    rng = random.Random(5)
    started = time.perf_counter()
    agree = 0
    closed_form = 0
    for _ in range(200):
        m = rng.randint(2, 12)
        r = rng.choice([x for x in (2, 3, 4) if x <= m])
        b = random_btu(rng, m, r)
        graph = b.matrix()
        fast = girth_bfs(graph).value
        assert fast == girth_oracle(graph).value
        agree += 1
        if r == 2:
            assert fast == 2 * min(relative_cycle_type(b.perms[0], b.perms[1]))
            closed_form += 1
    elapsed = time.perf_counter() - started
    ok = agree == 200 and elapsed < 10.0
    verdict(
        "5 girth engine equals oracle",
        ok,
        f"200 graphs, {closed_form} closed-form checks, {elapsed:.1f} s",
    )


def test_criterion_6_known_fixtures():
    k33 = Btu([identity(3), circulant(3, 1), circulant(3, 2)])
    ok = girth_bfs(k33.matrix()).value == 4
    for m in range(3, 9):
        cycle = Btu([identity(m), circulant(m, 1)])
        ok = ok and girth_bfs(cycle.matrix()).value == 2 * m
    heawood = Btu([circulant(7, 0), circulant(7, 1), circulant(7, 3)])
    ok = ok and girth_bfs(heawood.matrix()).value == 6
    verdict("6 known-graph fixtures", ok)


def test_criterion_7_determinism_across_workers(monkeypatch):
    # a pool for every search, so that the two runs differ in kind
    monkeypatch.setattr(girthmax.search, "_POOL_MIN_ROWS", 0)
    reports = []
    for workers in (1, WORKERS + 1):
        cfg = SearchConfig(k=6, strategy=ScalingStrategy.INTERLEAVED, worker_count=workers)
        result = search_r3(cfg)
        lines = [
            line
            for line in format_report(cfg, result).splitlines()
            if not line.startswith("elapsed_ms")
        ]
        reports.append(lines)
    verdict("7 determinism across worker counts", reports[0] == reports[1])


def test_criterion_8_serialization_and_relabel_invariance():
    rng = random.Random(8)
    ok = True
    for _ in range(50):
        m = rng.randint(2, 10)
        r = rng.randint(1, min(4, m))
        b = random_btu(rng, m, r)
        mat = read_alist(write_alist(b))
        ok = ok and mat == b.matrix()
        ok = ok and btu_from_matrix(mat).matrix() == b.matrix()
        girth = girth_bfs(b.matrix()).value
        row = Permutation(rng.sample(range(m), m))
        col = Permutation(rng.sample(range(m), m))
        ok = ok and girth_bfs(b.relabel(row, col).matrix()).value == girth
        ok = ok and girth_bfs(b.normalize_to_identity(rng.randrange(r)).matrix()).value == girth
    verdict("8 alist round-trip + relabel girth invariance", ok)


def test_criterion_7_k10_one_worker_equals_pool():
    # k = 10 is large enough for the pool, so the two runs differ in kind;
    # the pooled search is the cached criterion-3 one when WORKERS >= 2
    def snapshot(result):
        return (
            result.best_girth,
            result.witness_j,
            result.witness_q1.image,
            result.candidates_evaluated,
            result.skipped_incompatible,
        )

    pooled = run_search(10, ScalingStrategy.INTERLEAVED, max(2, WORKERS))
    serial = run_search(10, ScalingStrategy.INTERLEAVED, 1)
    verdict(
        "7 k=10 one worker equals the pool",
        snapshot(serial) == snapshot(pooled) and snapshot(serial)[:3] == WITNESSES[10],
        f"{serial.elapsed:.1f} s on 1 worker, {pooled.elapsed:.1f} s on {max(2, WORKERS)}",
    )
