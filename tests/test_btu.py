import random

import pytest

from girthmax.btu import (
    BinaryMatrix,
    Btu,
    DecompositionFailed,
    IncompatiblePermutations,
    MalformedAlist,
    MalformedDimacs,
    NotRegular,
    btu_from_matrix,
    read_alist,
    read_dense,
    read_dimacs,
    same_matrix,
    write_alist,
    write_dense,
    write_dimacs,
)
from girthmax.girth import girth_oracle
from girthmax.perm import Permutation, circulant, identity, relative_cycle_type

from conftest import random_btu, run_python

HEAWOOD = Btu([circulant(7, 0), circulant(7, 1), circulant(7, 3)])
ALL_ONES_3 = Btu([identity(3), circulant(3, 1), circulant(3, 2)])


class TestConstruction:
    def test_all_ones(self):
        assert ALL_ONES_3.m == 3 and ALL_ONES_3.r == 3
        assert ALL_ONES_3.matrix().rows == ((0, 1, 2),) * 3

    def test_self_collision(self):
        with pytest.raises(IncompatiblePermutations) as exc:
            Btu([identity(4), identity(4)])
        assert exc.value.position == 0
        assert (exc.value.first, exc.value.second) == (0, 1)

    def test_heawood_shifts(self):
        assert HEAWOOD.m == 7 and HEAWOOD.r == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Btu([identity(3), circulant(4, 1)])

    def test_r_cannot_exceed_m(self):
        with pytest.raises(ValueError):
            Btu([identity(2), circulant(2, 1), identity(2)])

    def test_order_sensitive_equality(self):
        a = Btu([identity(3), circulant(3, 1)])
        b = Btu([circulant(3, 1), identity(3)])
        assert a != b
        assert same_matrix(a, b)

    def test_compatibility_matches_matrix_check(self, rng):
        # success of the constructor <=> the summed matrix has r ones in
        # every row and column
        for _ in range(100):
            m = rng.randint(2, 10)
            r = rng.randint(2, min(4, m))
            perms = []
            for _ in range(r):
                image = list(range(m))
                rng.shuffle(image)
                perms.append(Permutation(image))
            counts = [[0] * m for _ in range(m)]
            for p in perms:
                for i, v in enumerate(p.image):
                    counts[i][v] += 1
            clean = all(c <= 1 for row in counts for c in row)
            row_ok = clean and all(sum(row) == r for row in counts)
            col_ok = clean and all(sum(row[c] for row in counts) == r for c in range(m))
            try:
                Btu(perms)
                built = True
            except IncompatiblePermutations:
                built = False
            assert built == (clean and row_ok and col_ok)


class TestBipartiteView:
    def test_all_ones_is_complete(self):
        g = ALL_ONES_3.to_bipartite()
        assert g.adjacency == ((0, 1, 2),) * 3
        assert g.edge_count == 9

    def test_matching(self):
        g = Btu([identity(5)]).to_bipartite()
        assert g.adjacency == tuple((i,) for i in range(5))

    def test_degrees_are_r_both_sides(self, rng):
        for _ in range(20):
            m = rng.randint(2, 10)
            r = rng.randint(1, min(4, m))
            b = random_btu(rng, m, r)
            g = b.to_bipartite()
            assert all(len(nbrs) == r for nbrs in g.adjacency)
            right = [0] * m
            for nbrs in g.adjacency:
                for c in nbrs:
                    right[c] += 1
            assert right == [r] * m

    def test_heawood_edge_count(self):
        assert HEAWOOD.to_bipartite().edge_count == 21


class TestRelabel:
    def test_identity_relabel_is_noop(self):
        assert HEAWOOD.relabel(identity(7), identity(7)) == HEAWOOD

    def test_row_shift_moves_shifts(self):
        rel = HEAWOOD.relabel(circulant(7, 1), identity(7))
        assert [p.image[0] for p in rel.perms] == [6, 0, 2]

    def test_normalize_to_identity(self):
        b = Btu([circulant(7, 1), circulant(7, 3), circulant(7, 0)])
        norm = b.normalize_to_identity(0)
        assert norm.perms[0] == identity(7)
        assert [p.image[0] for p in norm.perms] == [0, 2, 6]
        already = HEAWOOD.normalize_to_identity(0)
        assert already == HEAWOOD

    def test_normalize_index_range(self):
        with pytest.raises(IndexError):
            HEAWOOD.normalize_to_identity(3)

    def test_girth_invariant(self, rng):
        for _ in range(15):
            m = rng.randint(3, 9)
            b = random_btu(rng, m, rng.randint(2, 3))
            row = Permutation(rng.sample(range(m), m))
            col = Permutation(rng.sample(range(m), m))
            rel = b.relabel(row, col)
            assert girth_oracle(rel.to_bipartite()).value == girth_oracle(b.to_bipartite()).value

    def test_relative_cycle_types_invariant(self, rng):
        for _ in range(15):
            m = rng.randint(3, 9)
            b = random_btu(rng, m, 3)
            row = Permutation(rng.sample(range(m), m))
            col = Permutation(rng.sample(range(m), m))
            rel = b.relabel(row, col)
            for x in range(3):
                for y in range(x + 1, 3):
                    assert relative_cycle_type(b.perms[x], b.perms[y]) == relative_cycle_type(
                        rel.perms[x], rel.perms[y]
                    )


class TestAlist:
    def test_all_ones_text(self):
        text = write_alist(ALL_ONES_3)
        assert text == (
            "3 3\n3 3\n3 3 3\n3 3 3\n"
            "1 2 3\n1 2 3\n1 2 3\n"
            "1 2 3\n1 2 3\n1 2 3\n"
        )

    def test_round_trip_random(self, rng):
        for _ in range(50):
            m = rng.randint(2, 10)
            b = random_btu(rng, m, rng.randint(1, min(4, m)))
            assert read_alist(write_alist(b)) == b.matrix()

    def test_recovery_gives_same_matrix(self, rng):
        for _ in range(20):
            m = rng.randint(2, 9)
            b = random_btu(rng, m, rng.randint(1, min(4, m)))
            rec = btu_from_matrix(read_alist(write_alist(b)))
            assert rec.matrix() == b.matrix()

    def test_truncated(self):
        text = write_alist(HEAWOOD)
        with pytest.raises(MalformedAlist):
            read_alist("\n".join(text.splitlines()[:6]))

    def test_bad_field(self):
        with pytest.raises(MalformedAlist) as exc:
            read_alist("3 x\n3 3\n3 3 3\n3 3 3\n")
        assert exc.value.line == 1

    def test_degree_mismatch_is_not_regular(self):
        text = write_alist(ALL_ONES_3)
        lines = text.splitlines()
        lines[4] = "1 2"  # column 1 list loses an entry
        with pytest.raises(NotRegular):
            read_alist("\n".join(lines) + "\n")

    def test_inconsistent_lists(self):
        text = write_alist(HEAWOOD)
        lines = text.splitlines()
        assert lines[-1] == "1 3 7"
        lines[-1] = "1 4 7"  # row list no longer matches the column lists
        with pytest.raises(MalformedAlist):
            read_alist("\n".join(lines) + "\n")

    def test_zero_padding_tolerated(self):
        # 2x2 matrix with an irregular column written with padding zeros
        text = "2 2\n2 2\n2 1\n2 1\n1 2\n1 0\n1 2\n1 0\n"
        mat = read_alist(text)
        assert mat.rows == ((0, 1), (0,))

    def test_decomposition_failed_for_irregular(self):
        mat = BinaryMatrix(2, 2, [(0, 1), (0,)])
        with pytest.raises(DecompositionFailed):
            btu_from_matrix(mat)

    def test_recovery_at_large_m(self):
        # long augmenting chains: a recursive matcher overflowed the stack here
        m = 1200
        for perms in ([identity(m), circulant(m, 1)], [identity(m), circulant(m, 1), circulant(m, 3)]):
            b = Btu(perms)
            rec = btu_from_matrix(b.matrix())
            assert rec.matrix() == b.matrix()


class TestDimacs:
    def test_matching_lines(self):
        text = write_dimacs(Btu([identity(3)]))
        assert text == "p edge 6 3\ne 1 4\ne 2 5\ne 3 6\n"

    def test_all_ones_header(self):
        lines = write_dimacs(ALL_ONES_3).splitlines()
        assert lines[0] == "p edge 6 9"
        assert len(lines) == 10

    def test_edge_count_is_m_r(self, rng):
        for _ in range(10):
            m = rng.randint(2, 9)
            r = rng.randint(1, min(3, m))
            b = random_btu(rng, m, r)
            lines = write_dimacs(b).splitlines()
            assert len(lines) - 1 == m * r

    def test_round_trip(self, rng):
        for _ in range(20):
            b = random_btu(rng, rng.randint(2, 9), rng.randint(1, 3))
            assert read_dimacs(write_dimacs(b)) == b.matrix()

    def test_rejects_non_bipartite_convention(self):
        for text, lineno in (("p edge 4 1\ne 1 2\n", 2), ("p edge 4 2\ne 1 3\n\ne 1 2\n", 4)):
            with pytest.raises(MalformedDimacs, match=f"line {lineno}: edge \\(1, 2\\) does not join left"):
                read_dimacs(text)
        with pytest.raises(MalformedDimacs):
            read_dimacs("p edge 5 0\n")
        with pytest.raises(MalformedDimacs):
            read_dimacs("e 1 2\n")

    def test_rejects_duplicate_edge(self):
        text = write_dimacs(ALL_ONES_3).replace("p edge 6 9", "p edge 6 10")
        for repeat in ("e 1 4", "e 4 1"):
            with pytest.raises(MalformedDimacs, match="line 11: edge \\(1, 4\\) repeats line 2"):
                read_dimacs(text + repeat + "\n")

    def test_rejects_second_problem_line(self):
        with pytest.raises(MalformedDimacs, match="line 3: second problem line \\(first on line 1\\)"):
            read_dimacs("p edge 6 1\ne 1 4\np edge 4 1\n")

    def test_non_integer_field_names_line(self):
        for text, lineno in (("p edge 6 x\n", 1), ("p edge 6 1\nc note\ne 1 x\n", 3)):
            with pytest.raises(MalformedDimacs, match=f"line {lineno}: non-integer field"):
                read_dimacs(text)

    def test_negative_count_names_line(self):
        for text in ("c neg\np edge -4 0\n", "c neg\np edge 6 -1\n"):
            with pytest.raises(MalformedDimacs, match="line 2: negative count"):
                read_dimacs(text)


class TestDense:
    def test_write(self):
        assert write_dense(Btu([identity(2), circulant(2, 1)])) == "11\n11\n"

    def test_round_trip(self, rng):
        for _ in range(20):
            b = random_btu(rng, rng.randint(2, 9), rng.randint(1, 3))
            assert read_dense(write_dense(b)) == b.matrix()

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            read_dense("10\n1\n")

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(ValueError, match="line 3: ragged row"):
            read_dense("101\n\n01\n")
        with pytest.raises(ValueError, match="line 4: characters other than 0/1"):
            read_dense("\n10\n01\n1x\n")

    def test_to_array(self):
        a = ALL_ONES_3.to_array()
        assert a.shape == (3, 3) and a.sum() == 9

    def test_import_search_and_dense_leave_numpy_unloaded(self):
        proc = run_python(
            "import sys, girthmax\n"
            "for strategy in ('block', 'interleaved'):\n"
            "    for j_filter in (True, False):\n"
            "        cfg = girthmax.SearchConfig(k=4, strategy=strategy, j_range_filter=j_filter)\n"
            "        girthmax.search_r3(cfg)\n"
            "girthmax.write_dense(girthmax.Btu([girthmax.identity(3)]))\n"
            "print('numpy' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
