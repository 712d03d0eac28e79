import pytest

from girthmax.bounds import (
    _is_prime,
    FactorizationResult,
    bound_report,
    erdos_sachs_bounds,
    factorize_bk,
    gmax_report,
    gmax_upper,
    hoory_lower,
    irregular_girth_reference,
    irregular_reference_table_text,
    render_table,
    lazebnik_min_m,
    legendre,
    lps_min_q,
    moore_bipartite,
    moore_odd,
    moore_table_text,
    optimal_partitions,
    order_bounds_table_text,
    ramanujan_table_text,
    report_text,
)
from girthmax.btu import Btu
from girthmax.girth import girth_bfs
from girthmax.perm import ScalingStrategy, circulant
from girthmax.search import SearchConfig, construct_candidate, search_r3

from conftest import networkx_girth, run_python


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestFactorization:
    def test_examples(self):
        assert factorize_bk(100, 3) == FactorizationResult(100, 3, b=1, k=10)
        assert factorize_bk(49, 3) == FactorizationResult(49, 3, b=1, k=7)
        assert factorize_bk(12, 3) == FactorizationResult(12, 3, b=3, k=2)

    def test_exact_and_maximal(self):
        for m in range(1, 200):
            for r in (2, 3, 4):
                f = factorize_bk(m, r)
                assert f.b * f.k ** (r - 1) == m
                assert all(m % (kk ** (r - 1)) for kk in range(f.k + 1, m + 1))

    def test_large_perfect_powers(self):
        # beyond float range (7^1200) and float precision (10^300), the
        # roots are exact and found at once; in a fresh interpreter, so
        # that a root search which walks the float error one step at a
        # time fails by timeout
        code = """
from girthmax.bounds import _iroot, factorize_bk
for m in (10**300 - 1, 10**300, 10**300 + 1):
    for e in range(2, 7):
        x = _iroot(m, e)
        assert x**e <= m < (x + 1) ** e, (m, e)
assert factorize_bk(10**300, 4).k == 10**100
assert factorize_bk(7**1200, 4).k == 7**400
"""
        out = run_python(code)
        assert out.returncode == 0, out.stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            factorize_bk(0, 3)
        with pytest.raises(ValueError):
            factorize_bk(10, 1)


class TestGmax:
    def test_values(self):
        assert gmax_upper(25, 3) == 8
        assert gmax_upper(49, 3) == 12
        assert gmax_upper(64, 4) == 6

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            gmax_upper(25, 2)
        with pytest.raises(ValueError, match="r >= 3"):
            gmax_report(49, 2)

    def test_rejects_r_above_m(self):
        # no (m, r) BTU has more than m ones in a row
        for m, r in ((1, 3), (3, 4)):
            with pytest.raises(ValueError, match=f"r = {r} exceeds m = {m}"):
                gmax_upper(m, r)
            with pytest.raises(ValueError, match=f"r = {r} exceeds m = {m}"):
                gmax_report(m, r)
        with pytest.raises(ValueError, match="k >= 4"):
            gmax_upper(3, 3)

    @pytest.mark.parametrize("m, shifts", [(9, (0, 1, 3)), (4, (0, 1, 2)), (10, (0, 1, 3)), (27, (0, 1, 3, 9))])
    def test_rejects_k_below_4(self, m, shifts):
        # 2k - 2 is refuted there: each of these circulant BTUs beats it
        r = len(shifts)
        btu = Btu([circulant(m, s) for s in shifts])
        assert girth_bfs(btu.matrix()).value > 2 * factorize_bk(m, r).k - 2
        for query in (gmax_upper, gmax_report):
            with pytest.raises(ValueError, match="k >= 4"):
                query(m, r)

    def test_rejects_b_above_1(self):
        # m = 32 = 2*4^2: the search reaches girth 8 > 2k - 2 = 6 under
        # both scalings, and networkx agrees on the winners
        for strategy in ScalingStrategy:
            cfg = SearchConfig(k=4, b=2, strategy=strategy)
            result = search_r3(cfg)
            winner = construct_candidate(result.witness_q1, result.witness_j, cfg)
            assert result.best_girth == networkx_girth(winner) == 8 > 2 * factorize_bk(32, 3).k - 2
        for query in (gmax_upper, gmax_report):
            with pytest.raises(ValueError, match=r"b = 1, m = k\^2 with k >= 4; m = 32 is not k\^2 for any integer k"):
                query(32, 3)

    def test_rejects_b_above_1_at_once(self):
        # 10^18 + 1 is no square, so b > 1, and the error comes without a
        # factorization, which scans k down from 10^9 one step at a time;
        # in a fresh interpreter, so that such a scan fails by timeout
        code = """
from girthmax.cli import main
assert main(["bounds", "--gmax", str(10**18 + 1), "3"]) == 1
"""
        out = run_python(code)
        assert out.returncode == 0, out.stderr
        want = f"b = 1, m = k^2 with k >= 4; m = {10**18 + 1} is not k^2 for any integer k"
        assert want in out.stderr, out.stderr

    @pytest.mark.parametrize("k", [4, 5])
    def test_ceiling_holds_over_the_search(self, k):
        for strategy in ScalingStrategy:
            assert gmax_upper(k * k, 3) >= search_r3(SearchConfig(k=k, strategy=strategy)).best_girth

    def test_report(self):
        rep = gmax_report(49, 3)
        assert rep.value("claimed_ceiling") == 12
        assert rep.value("k") == 7 and rep.value("b") == 1


class TestOptimalPartitions:
    def test_example(self):
        assert optimal_partitions(1, 2, 4) == [(2, 2, 2, 2), (4, 4), (8,)]

    def test_single(self):
        assert optimal_partitions(1, 7, 2) == [(7,)]

    def test_parts_sum(self):
        for b in (1, 2, 3):
            for k in (1, 2, 3):
                for r in (2, 3, 4, 5):
                    total = b * k ** (r - 1)
                    for part in optimal_partitions(b, k, r):
                        assert sum(part) == total


class TestMooreBipartite:
    def test_table_values(self):
        expected = {4: 6, 6: 14, 8: 30, 10: 62, 12: 126, 14: 254}
        for g, v in expected.items():
            assert moore_bipartite(g, 3) == v

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            moore_bipartite(7, 3)

    def test_twice_the_per_side_bound(self):
        for delta in range(3, 8):
            for g in range(4, 22, 2):
                assert moore_bipartite(g, delta) == 2 * hoory_lower(g, delta)

    def test_higher_degree(self):
        assert moore_bipartite(4, 4) == 8  # 2*(3^2-1)/2


class TestErdosSachs:
    def test_rows(self):
        expected = {
            4: (3, 15, 8),
            6: (7, 63, 32),
            8: (15, 255, 128),
            10: (31, 1023, 512),
            12: (63, 4095, 2048),
            14: (127, 16383, 8192),
        }
        for g, (lower, upper, improved) in expected.items():
            rep = erdos_sachs_bounds(g)
            assert rep.value("lower") == lower
            assert rep.value("upper") == upper
            assert rep.value("improved_upper") == improved

    def test_ordering(self):
        for g in range(4, 30, 2):
            rep = erdos_sachs_bounds(g)
            assert rep.value("lower") <= rep.value("improved_upper") <= rep.value("upper")

    def test_rejects_other_degrees(self):
        with pytest.raises(ValueError):
            erdos_sachs_bounds(8, delta=4)


class TestHoory:
    def test_values(self):
        assert hoory_lower(12, 3) == 63
        assert hoory_lower(10, 3) == 31
        assert hoory_lower(8, 3) == 15

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            hoory_lower(8, 2)
        with pytest.raises(ValueError):
            hoory_lower(7, 3)
        # girth below 4, as moore_bipartite rejects it (g = -2 gave the float -1.0)
        for g in (-2, 0, 2):
            with pytest.raises(ValueError, match="girth must be >= 4"):
                hoory_lower(g, 3)


class TestLazebnik:
    def test_powers(self):
        assert lazebnik_min_m(12, 3) == 2187  # 3^7, exact
        assert lazebnik_min_m(10, 3) == 243
        assert lazebnik_min_m(12, 4) == 16384

    def test_validation(self):
        with pytest.raises(ValueError):
            lazebnik_min_m(6, 3)
        with pytest.raises(ValueError):
            lazebnik_min_m(12, 6)  # 6 = 2*3 is not a prime power
        assert lazebnik_min_m(8, 9) == 9**3  # prime powers allowed


class TestMooreOdd:
    def test_values(self):
        assert moore_odd(5, 3) == 10
        assert moore_odd(7, 3) == 22
        assert moore_odd(5, 4) == 17

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            moore_odd(6, 3)


class TestLegendre:
    def test_examples(self):
        assert legendre(2, 5) == -1
        assert legendre(2, 7) == 1
        assert legendre(4, 7) == 1

    def test_zero_case(self):
        assert legendre(10, 5) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre(2, 9)
        with pytest.raises(ValueError):
            legendre(2, 2)

    def test_two_closed_form(self):
        # (2|q) = -1 exactly when q = 3 or 5 mod 8
        for q in range(3, 1000, 2):
            if not is_prime(q):
                continue
            expected = -1 if q % 8 in (3, 5) else 1
            assert legendre(2, q) == expected

    def test_primality_is_one_prime_factor(self):
        # `legendre` and `lps_min_q` test primality as _prime_factors(n) == [n]
        for n in range(-3, 2001):
            assert _is_prime(n) == is_prime(n), n


class TestLps:
    def test_table_rows(self):
        assert lps_min_q(6) == (5, 120)
        assert lps_min_q(8) == (11, 1320)
        assert lps_min_q(10) == (11, 1320)
        assert lps_min_q(12) == (13, 2184)

    def test_order_and_primality(self):
        for g in range(4, 26, 2):
            q, n = lps_min_q(g)
            assert is_prime(q)
            assert n == q**3 - q
            assert q**4 >= 2 ** (g + 2)
            assert legendre(2, q) == -1


class TestReferenceData:
    def test_rows(self):
        data = dict(irregular_girth_reference())
        assert data[10] == 39
        assert data[6] == 5
        assert 7 not in data
        assert len(data) == 4


class TestReports:
    def test_even_query_quantities_consistent(self):
        for g in (6, 8, 10, 12):
            rep = bound_report(g, 3)
            for quantity in ("vertices", "per_side"):
                lowers = [e.value for e in rep.entries if e.direction == "lower" and e.quantity == quantity]
                uppers = [e.value for e in rep.entries if e.direction == "upper" and e.quantity == quantity]
                for lo in lowers:
                    for hi in uppers:
                        assert lo <= hi

    def test_odd_query(self):
        rep = bound_report(5, 3)
        assert rep.value("moore_odd") == 10

    def test_report_text_layout(self):
        text = report_text(bound_report(8, 3))
        assert text.startswith("query: g=8 delta=3\n")
        assert "moore_bipartite: 30  [lower, vertices]" in text


class TestTableRendering:
    def test_stable_bytes(self):
        assert moore_table_text() == moore_table_text()
        assert order_bounds_table_text().splitlines()[4] == "10  31     1023   512"
        assert irregular_reference_table_text().splitlines()[1] == "6      5"
        assert ramanujan_table_text().splitlines()[2] == "8      11     1320  2  3"

    def test_no_rows_is_the_header_line(self):
        assert render_table(["k", "m", "r", "girth"], []) == "k  m  r  girth\n"
