import concurrent.futures
import dataclasses
import hashlib
import pickle
import random

import pytest

from girthmax import btu
from girthmax.btu import (
    BinaryMatrix,
    Btu,
    DecompositionFailed,
    IncompatiblePermutations,
    MalformedAlist,
    MalformedDimacs,
    NotRegular,
    _read_dimacs_bulk,
    _read_dimacs_lines,
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

from conftest import random_btu, round_trips, run_python, seeded_lift, table_1_winner

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

    def test_first_colliding_position_is_reported(self):
        # constituents 0 and 1 collide at position 4, 1 and 2 already at 2
        perms = [identity(6), Permutation([1, 2, 3, 5, 4, 0]), Permutation([5, 0, 3, 1, 2, 4])]
        with pytest.raises(IncompatiblePermutations) as exc:
            Btu(perms)
        assert (exc.value.position, exc.value.first, exc.value.second) == (2, 1, 2)
        assert str(exc.value) == "constituents 1 and 2 collide at position 2"
        # the error pickles, so that it crosses a process boundary as itself
        loaded = pickle.loads(pickle.dumps(exc.value))
        assert type(loaded) is IncompatiblePermutations
        assert (loaded.position, loaded.first, loaded.second) == (2, 1, 2)
        assert str(loaded) == str(exc.value)

    def test_collision_fields_match_a_position_scan(self, rng):
        for _ in range(200):
            m = rng.randint(2, 8)
            r = rng.randint(2, min(4, m))
            perms = [Permutation(rng.sample(range(m), m)) for _ in range(r)]
            expected = None
            for i in range(m):
                column = [p.image[i] for p in perms]
                second = next((t for t in range(r) if column[t] in column[:t]), None)
                if second is not None:
                    expected = (i, column.index(column[second]), second)
                    break
            if expected is None:
                assert Btu(perms).perms == tuple(perms)
                continue
            with pytest.raises(IncompatiblePermutations) as exc:
                Btu(perms)
            assert (exc.value.position, exc.value.first, exc.value.second) == expected

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
        g = ALL_ONES_3.matrix()
        assert g.rows == ((0, 1, 2),) * 3
        assert sum(map(len, g.rows)) == 9

    def test_matching(self):
        g = Btu([identity(5)]).matrix()
        assert g.rows == tuple((i,) for i in range(5))

    def test_degrees_are_r_both_sides(self, rng):
        for _ in range(20):
            m = rng.randint(2, 10)
            r = rng.randint(1, min(4, m))
            b = random_btu(rng, m, r)
            g = b.matrix()
            assert all(len(nbrs) == r for nbrs in g.rows)
            right = [0] * m
            for nbrs in g.rows:
                for c in nbrs:
                    right[c] += 1
            assert right == [r] * m

    def test_heawood_edge_count(self):
        assert sum(map(len, HEAWOOD.matrix().rows)) == 21


class TestValidation:
    def test_binary_matrix_sorts_and_range_checks(self):
        # a 0/1 matrix has no double edge: repeats and order are normalised
        assert BinaryMatrix(2, 3, [(2, 0, 2), (1,)]).rows == ((0, 2), (1,))
        assert BinaryMatrix(2, 3, [(0, 1), (2, 1)]).rows == ((0, 1), (1, 2))
        assert BinaryMatrix(2, 3, [(1, 1), ()]).rows == ((1,), ())
        for n_rows, n_cols, rows, message in (
            (2, 3, [(2, 0), (3, 1)], "row 1: column index out of range"),
            (2, 3, [(0, 1), (5, 2)], "row 1: column index out of range"),
            (2, 3, [(2, -1), (1,)], "row 0: column index out of range"),
            (2, 3, [(0, 3), (1, 2)], "row 0: column index out of range"),
            (2, 3, [(0,)], "expected 2 rows, got 1"),
            # write_alist would write a header that read_alist rejects
            (2, -3, [(), ()], "negative dimension: 2x-3"),
            (-1, 3, [], "negative dimension: -1x3"),
            # and so would a zero dimension, which dense text cannot express at all
            (0, 0, [], "zero dimension: 0x0"),
            (2, 0, [(), ()], "zero dimension: 2x0"),
            (0, 3, [], "zero dimension: 0x3"),
        ):
            with pytest.raises(ValueError) as exc:
                BinaryMatrix(n_rows, n_cols, rows)
            assert str(exc.value) == message


class TestTrustedViews:
    """`matrix()` skips re-validation; it must still equal what the
    validating constructor builds."""

    def test_views_equal_validated_constructions(self, rng):
        for r in range(1, 5):
            for _ in range(10):
                m = rng.randint(max(r, 2), 10)
                b = random_btu(rng, m, r)
                rows = [[p.image[i] for p in b.perms] for i in range(m)]
                mat = b.matrix()
                ref = BinaryMatrix(m, m, rows)
                read = read_alist(write_alist(b))
                assert mat == ref == read and hash(mat) == hash(ref) == hash(read)
                flipped = Btu(b.perms[::-1])
                assert same_matrix(b, flipped)
                assert (b == flipped) == (r == 1)
                # equal values, hashes and reprs after copy, deepcopy and pickle
                for value in (b, mat, ref, read):
                    for copied in round_trips(value):
                        assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)

    def test_views_are_immutable(self):
        for value, names in (
            (HEAWOOD.matrix(), ("rows", "n_rows", "n_cols")),
            (BinaryMatrix(2, 3, [(0, 2), (1,)]), ("rows", "n_rows", "n_cols")),
            (read_alist(write_alist(HEAWOOD)), ("rows", "n_rows", "n_cols")),
            (HEAWOOD, ("perms",)),
        ):
            before = dataclasses.astuple(value)
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(value, name, ())
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, name)
            assert dataclasses.astuple(value) == before

    @pytest.mark.parametrize("value", [identity(3), HEAWOOD.matrix(), HEAWOOD], ids=lambda value: type(value).__name__)
    def test_any_name_refused_as_frozen(self, value):
        # for a name that is not a field, the frozen __setattr__ and
        # __delattr__ that dataclass writes for a slotted class raise
        # TypeError (CPython 3.10 to 3.13); every name must raise
        # FrozenInstanceError, an AttributeError, as a field does
        before = dataclasses.astuple(value)
        for name in ("x", *(field.name for field in dataclasses.fields(value))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert not hasattr(value, "x") and dataclasses.astuple(value) == before

    def test_to_bipartite_aliases(self, rng):
        # kept only for perfbench, their one caller outside the tests
        for _ in range(10):
            b = random_btu(rng, rng.randint(2, 10), rng.randint(1, 2))
            mat = b.matrix()
            assert mat.to_bipartite() is mat
            assert b.to_bipartite() == mat


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
            assert girth_oracle(rel.matrix()).value == girth_oracle(b.matrix()).value

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
        bad = "3 x\n3 3\n3 3 3\n3 3 3\n"
        with pytest.raises(MalformedAlist) as exc:
            read_alist(bad)
        assert exc.value.line == 1
        # the error pickles, so that it crosses a process boundary as itself
        loaded = pickle.loads(pickle.dumps(exc.value))
        assert type(loaded) is MalformedAlist and loaded.line == 1
        assert str(loaded) == str(exc.value) == "line 1: non-integer field 'x'"
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(MalformedAlist) as pooled:
                pool.submit(read_alist, bad).result()
        assert pooled.value.line == 1 and str(pooled.value) == str(exc.value)

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

    def test_decomposition_failed_for_all_zero(self):
        # regular of degree 0, but a BTU needs a constituent
        with pytest.raises(DecompositionFailed, match="matrix has no ones"):
            btu_from_matrix(BinaryMatrix(3, 3, [(), (), ()]))

    def test_recovery_at_large_m(self):
        # long augmenting chains: a recursive matcher overflowed the stack here
        m = 1200
        for perms in ([identity(m), circulant(m, 1)], [identity(m), circulant(m, 1), circulant(m, 3)]):
            b = Btu(perms)
            rec = btu_from_matrix(b.matrix())
            assert rec.matrix() == b.matrix()


class TestAlistFaultOrder:
    """Two faulty index lines: the earlier line is reported, with the
    type and message a line-by-line reader raises. Zero padding, on
    faulty lines or others, is not a fault."""

    @staticmethod
    def _fault(tokens: list[str], kind: str, lineno: int, what: str, bound: int):
        # the faulty tokens of one line, and the error that line raises
        if kind == "non-integer":
            return tokens + ["x1"], MalformedAlist, f"line {lineno}: non-integer field 'x1'"
        if kind == "out of range":
            return tokens[:-1] + [str(bound + 1)], MalformedAlist, f"line {lineno}: {what} index {bound + 1} outside 1..{bound}"
        if kind == "duplicate":
            return tokens[:-1] + tokens[:1], MalformedAlist, f"line {lineno}: duplicate {what} index"
        if kind == "extra duplicate":  # as many distinct entries as declared
            return tokens + tokens[:1], MalformedAlist, f"line {lineno}: duplicate {what} index"
        declared = len(tokens)
        return tokens[:-1], NotRegular, f"line {lineno}: {what} list has {declared - 1} entries, degree declares {declared}"

    @staticmethod
    def _pad(rng, tokens: list[str]) -> list[str]:
        out = list(tokens)
        for _ in range(rng.randint(1, 2)):
            out.insert(rng.randint(0, len(out)), "0")
        return out

    def test_earlier_line_wins(self, rng):
        kinds = ("non-integer", "out of range", "duplicate", "extra duplicate", "count")
        for _ in range(300):
            m = rng.randint(3, 8)
            b = random_btu(rng, m, rng.randint(2, 3))
            lines = write_alist(b).splitlines()
            first, second = sorted(rng.sample(range(4, 4 + 2 * m), 2))
            expected = None
            for idx in (first, second):
                what = "row" if idx < 4 + m else "column"
                tokens, err, message = self._fault(lines[idx].split(), rng.choice(kinds), idx + 1, what, m)
                lines[idx] = " ".join(tokens)
                expected = expected or (err, message, idx + 1)
            for idx in rng.sample(range(4, 4 + 2 * m), rng.randint(0, 2 * m)):
                lines[idx] = " ".join(self._pad(rng, lines[idx].split()))
            err, message, lineno = expected
            with pytest.raises((MalformedAlist, NotRegular)) as exc:
                read_alist("\n".join(lines) + "\n")
            assert (type(exc.value), str(exc.value)) == (err, message)
            if err is MalformedAlist:
                assert exc.value.line == lineno

    def test_zero_padding_alone_reads_the_same_matrix(self, rng):
        for _ in range(50):
            m = rng.randint(2, 8)
            b = random_btu(rng, m, rng.randint(1, min(3, m)))
            lines = write_alist(b).splitlines()
            for idx in rng.sample(range(4, 4 + 2 * m), rng.randint(1, 2 * m)):
                lines[idx] = " ".join(self._pad(rng, lines[idx].split()))
            assert read_alist("\n".join(lines) + "\n") == b.matrix()

    def test_non_canonical_integers_are_read(self):
        # "+1" and "01" are integers to int(); only the bulk reader skips them
        text = "3 3\n3 3\n3 3 3\n3 3 3\n+1 02 3\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n1 2 003\n"
        assert read_alist(text) == ALL_ONES_3.matrix()


class TestAlistBulkPath:
    """`read_alist` reads index lines of plain labels in one pass per
    block, whatever whitespace parts them, and any other text line by
    line; on written and mutated texts it must give the line reader's
    matrix, or its error and line."""

    @pytest.fixture
    def read(self, monkeypatch):
        """read(text, bulk) -> (matrix or (error type, message, line), whether the bulk pass took the text)."""
        real = btu._read_alist_bulk
        state = {}

        def spy(*args):
            state["rows"] = real(*args) if state["bulk"] else None
            return state["rows"]

        def read(text: str, bulk: bool = True):
            state.update(bulk=bulk, rows=None)
            try:
                outcome = read_alist(text)
            except ValueError as exc:
                outcome = type(exc), str(exc), getattr(exc, "line", None)
            return outcome, state["rows"] is not None

        monkeypatch.setattr(btu, "_read_alist_bulk", spy)
        return read

    @staticmethod
    def _matrix(rng) -> BinaryMatrix:
        # a BTU's matrix, or an irregular one, possibly non-square or with an empty line
        if rng.random() < 0.6:
            m = rng.randint(1, 8)
            return random_btu(rng, m, rng.randint(1, min(3, m))).matrix()
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        low = 0 if rng.random() < 0.2 else 1
        rows = [rng.sample(range(n_cols), rng.randint(low, n_cols)) for _ in range(n_rows)]
        return BinaryMatrix(n_rows, n_cols, rows)

    @staticmethod
    def _mutate(rng, lines: list[str], bound: int) -> list[str]:
        # one mutation; `bound` exceeds every index of either block
        kind = rng.choice((
            "zero", "sign", "tab", "double", "leading", "trailing", "blank", "crlf", "unsorted",
            "duplicate", "range", "disagree", "swapped", "moved", "dropped", "degree", "maxima",
        ))
        i = rng.randrange(4, len(lines)) if len(lines) > 4 else 0
        tokens = lines[i].split(" ")
        j = rng.randrange(len(tokens))
        if kind == "zero":
            tokens.insert(rng.randint(0, len(tokens)), "0")
        elif kind == "sign":
            tokens[j] = rng.choice(("+", "0", "x")) + tokens[j]
        elif kind in ("tab", "double"):
            tokens[j] += "\t" if kind == "tab" else " "
        elif kind in ("leading", "trailing"):
            tokens = [""] + tokens if kind == "leading" else tokens + [""]
        elif kind == "crlf":
            tokens[-1] += "\r"
        elif kind == "blank":
            lines.insert(rng.randint(1, len(lines)), "")
        elif kind == "unsorted":
            rng.shuffle(tokens)
        elif kind == "duplicate":
            tokens[j] = rng.choice(tokens)
        elif kind == "range":
            tokens[j] = str(rng.choice((bound, bound + 1, -1)))
        elif kind == "disagree":
            tokens[j] = str(rng.randint(1, bound - 1))
        elif kind == "swapped" and len(lines) > 5:
            k = rng.randrange(4, len(lines))
            lines[i], lines[k] = lines[k], lines[i]
            return lines
        elif kind == "moved" and i + 1 < len(lines):  # the last token to the start of the next line
            lines[i + 1] = tokens.pop() + " " + lines[i + 1]
        elif kind == "dropped":
            del tokens[j]
        elif kind in ("degree", "maxima"):
            i = rng.choice((2, 3)) if kind == "degree" else 1
            tokens = lines[i].split(" ")
            j = rng.randrange(len(tokens))
            if tokens[j].isdigit():  # an earlier mutation may have moved the line
                tokens[j] = str(int(tokens[j]) + rng.choice((-1, 1)))
        lines[i] = " ".join(tokens)
        return lines

    def test_written_layout_takes_the_bulk_path(self, rng, read):
        for m in range(1, 10):
            text = write_alist(random_btu(rng, m, rng.randint(1, min(3, m))))
            assert read(text) == (read(text, bulk=False)[0], True)
        # irregular and non-square, without an empty line
        text = write_alist(BinaryMatrix(2, 3, [(0, 2), (1,)]))
        assert read(text) == (read(text, bulk=False)[0], True)

    def test_other_layouts_take_the_bulk_path(self, rng, read):
        # layouts of other alist writers: space-padded, tab-separated, CRLF
        for m in range(1, 10):
            lines = write_alist(random_btu(rng, m, rng.randint(1, min(3, m)))).splitlines()
            for prefix, space, suffix in ((" ", " ", " "), ("", "  ", ""), ("", " ", "\r"), ("\t", "\t", "")):
                index_lines = [prefix + line.replace(" ", space) + suffix for line in lines[4:]]
                text = "\n".join(lines[:4] + index_lines) + "\n"
                assert read(text) == (read(text, bulk=False)[0], True), text
        # a descending column line: the line reader sorts column lists
        text = write_alist(BinaryMatrix(2, 2, [(0, 1), (0,)]))
        assert text.startswith("2 2\n2 2\n2 1\n2 1\n1 2\n")
        flipped = text.replace("\n1 2\n", "\n2 1\n", 1)
        assert read(flipped) == (BinaryMatrix(2, 2, [(0, 1), (0,)]), True)

    def test_mutated_texts_read_as_the_line_reader_reads_them(self, rng, read):
        taken = 0
        cases = 2000
        for _ in range(cases):
            mat = self._matrix(rng)
            lines = write_alist(mat).splitlines()
            for _ in range(rng.randint(0, 3)):
                lines = self._mutate(rng, lines, max(mat.n_rows, mat.n_cols) + 1)
            end = rng.choice(("\n", "\n", "\r\n"))
            text = end.join(lines) + end
            outcome, bulk = read(text)
            assert outcome == read(text, bulk=False)[0], text
            taken += bulk
        # both paths are exercised
        assert 0.05 * cases < taken < 0.95 * cases

    def test_tokens_moved_across_a_line_break_are_the_line_readers(self, read):
        # the row block holds the same labels in the same order, but line 7
        # holds one and line 8 two, where the row degrees declare two and one
        text = write_alist(BinaryMatrix(2, 2, [(0, 1), (1,)]))
        assert text.endswith("\n1 2\n2\n")
        moved = text[: -len("1 2\n2\n")] + "1\n2 2\n"
        message = "line 7: column list has 1 entries, degree declares 2"
        assert read(moved) == ((NotRegular, message, None), False)

    def test_a_repeat_in_both_blocks_is_the_line_readers(self, read):
        # column 1 lists row 1 twice and row 1 column 1 twice: the blocks
        # agree, so only the per-row repeat count keeps the bulk pass out
        text = "1 1\n2 2\n2\n2\n1 1\n1 1\n"
        assert read(text) == ((MalformedAlist, "line 5: duplicate row index", 5), False)


# The constituents btu_from_matrix recovers from the matrices of the Table 1
# winners (conftest.TABLE_1_WINNERS), in extraction order. The greedy
# matcher's choices decide this order.
RECOVERED = {
    5: (
        tuple(range(25)),
        (7, 8, 22, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 0, 23, 24, 3, 1, 2, 6, 4, 5, 9),
        (20, 21, 9, 23, 24, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 22, 1, 2, 0, 4, 5, 3, 7, 8, 6),
    ),
    6: (
        tuple(range(36)),
        (7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
         25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 0, 1, 2, 3, 4, 5, 6),
        (6, 7, 8, 9, 10, 11, 18, 19, 20, 21, 22, 23, 30, 31, 32, 33, 34, 35,
         12, 13, 14, 15, 16, 17, 0, 1, 2, 3, 4, 5, 24, 25, 26, 27, 28, 29),
    ),
    7: (
        tuple(range(49)),
        (10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 33, 23, 24, 25, 26, 45, 28, 29, 30, 31, 32, 9, 34,
         35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 0, 46, 47, 48, 4, 1, 2, 3, 22, 5, 6, 7, 8, 27),
        (14, 15, 16, 17, 18, 19, 20, 28, 29, 30, 31, 32, 22, 34, 42, 43, 44, 27, 46, 47, 48, 7, 8, 33, 10,
         11, 12, 13, 35, 36, 37, 38, 39, 40, 41, 45, 1, 2, 3, 0, 5, 6, 21, 4, 23, 24, 25, 26, 9),
    ),
}
# (k, lift order L, seed) -> sha256 of repr([list(p.image) for p in recovered.perms])
RECOVERED_LIFTS = {
    (5, 2, 11): "954e8c5caffbcf0d0caf73f2c71174c37db53e29eff61b633c84903b1591e3ae",
    (6, 3, 12): "f9c238bbfd2efea7c2a43533383cf931bf91b4b72e8ebcd3eeffec5910d0f0a0",
    (7, 11, 13): "d2ccdc97476008de784510dd6a0480e67b7298223960de231ba7848cd2eb8271",  # m = 539
}
# (k, L, seed) of ten lifts with m = 100..1,000, the sizes perfbench's graph_io
# decomposes, and one sha256 over the repr of each one's recovered images
RECOVERED_LARGE_LIFTS = (
    (5, 4, 1), (6, 4, 2), (7, 5, 3), (5, 12, 4), (6, 10, 5),
    (7, 9, 6), (5, 24, 7), (6, 20, 8), (7, 17, 9), (5, 40, 10),
)
RECOVERED_LARGE_SHA256 = "b4e01cd1e31fc2b67c4fbf1f888be3e9d064b73dabc3bda719886a1d3556ba6e"
# (k, L, seed, r) -> the same for the lift of the winner's first r constituents
RECOVERED_PREFIX_LIFTS = {
    (7, 11, 13, 1): "3ec59bb81bedf14782729115d2ee35d051c71257690f83d0f79bb90a27cd5671",
    (7, 11, 13, 2): "85d943155ee721d421d812d5e546f9056bfa1092a1760a2631f8d86b5ea03100",
}


class TestRecoveryOrder:
    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_table_1_winners(self, k):
        rec = btu_from_matrix(table_1_winner(k).matrix())
        assert tuple(p.image for p in rec.perms) == RECOVERED[k]

    @pytest.mark.parametrize("k, L, seed", list(RECOVERED_LIFTS))
    def test_seeded_lifts(self, k, L, seed):
        lifted = seeded_lift(table_1_winner(k), L, random.Random(seed))
        rec = btu_from_matrix(lifted.matrix())
        assert same_matrix(rec, lifted)
        images = [list(p.image) for p in rec.perms]
        assert hashlib.sha256(repr(images).encode()).hexdigest() == RECOVERED_LIFTS[(k, L, seed)]

    def test_large_seeded_lifts(self):
        digest = hashlib.sha256()
        for k, L, seed in RECOVERED_LARGE_LIFTS:
            lifted = seeded_lift(table_1_winner(k), L, random.Random(seed))
            rec = btu_from_matrix(lifted.matrix())
            assert same_matrix(rec, lifted)
            digest.update(repr([list(p.image) for p in rec.perms]).encode())
        assert digest.hexdigest() == RECOVERED_LARGE_SHA256

    def test_large_seeded_lifts_pass_the_validating_constructors(self):
        # btu_from_matrix builds its constituents and its Btu unchecked;
        # rebuilt through the checks, they are equal
        for k, L, seed in RECOVERED_LARGE_LIFTS:
            rec = btu_from_matrix(seeded_lift(table_1_winner(k), L, random.Random(seed)).matrix())
            assert Btu([Permutation(p.image) for p in rec.perms]) == rec, (k, L, seed)

    @pytest.mark.parametrize("k, L, seed, r", list(RECOVERED_PREFIX_LIFTS))
    def test_seeded_lifts_of_fewer_constituents(self, k, L, seed, r):
        # r = 1 grows no matching, r = 2 one before the remainder
        lifted = seeded_lift(Btu(table_1_winner(k).perms[:r]), L, random.Random(seed))
        rec = btu_from_matrix(lifted.matrix())
        assert rec.r == r and same_matrix(rec, lifted)
        images = [list(p.image) for p in rec.perms]
        assert hashlib.sha256(repr(images).encode()).hexdigest() == RECOVERED_PREFIX_LIFTS[(k, L, seed, r)]


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
        # m = 0 would give a 0x0 matrix, which no reader accepts back
        with pytest.raises(MalformedDimacs, match="vertex count 0"):
            read_dimacs("p edge 0 0\n")
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

    def test_rejects_non_square(self):
        # m per side is all the header says, so 1x3 would read back as 2x2
        with pytest.raises(ValueError, match="DIMACS needs a square matrix, got 1x3"):
            write_dimacs(BinaryMatrix(1, 3, [(1, 2)]))

    def test_negative_count_names_line(self):
        for text in ("c neg\np edge -4 0\n", "c neg\np edge 6 -1\n"):
            with pytest.raises(MalformedDimacs, match="line 2: negative count"):
                read_dimacs(text)


class TestDimacsBulkPath:
    """`read_dimacs` reads `write_dimacs`'s layout in one pass and any
    other text with `_read_dimacs_lines`; on written and mutated texts
    it must give the line reader's matrix, or its error."""

    SEPARATORS = (" ", "  ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028")

    @staticmethod
    def _outcome(read, text):
        try:
            return read(text)
        except ValueError as exc:
            return type(exc), str(exc)

    def _mutate(self, rng, lines: list[str], m: int) -> list[str]:
        # one mutation of the header and edge lines; the text's last "\n" is the caller's
        kind = rng.choice((
            "reversed", "comment", "blank", "duplicate", "sign", "zero", "joined", "shuffled",
            "count", "vertices", "separator", "range", "dropped", "record", "non-integer",
        ))
        edges = [i for i, ln in enumerate(lines) if ln.startswith("e ") and len(ln.split()) == 3]
        header = [i for i, ln in enumerate(lines) if ln.startswith("p edge ") and ln.split()[-1].isdigit()]
        if kind == "comment":
            lines.insert(rng.randint(0, len(lines)), rng.choice(("c", "c note", "c e 1 2", "comment")))
        elif kind == "blank":
            lines.insert(rng.randint(0, len(lines)), rng.choice(("", " ", "\t")))
        elif kind == "shuffled":
            body = lines[1:]
            rng.shuffle(body)
            lines[1:] = body
        elif kind in ("count", "vertices") and header:
            fields = lines[header[0]].split()
            at = 3 if kind == "count" else 2
            fields[at] = str(max(0, int(fields[at]) + rng.choice((-2, -1, 1, 2))))
            lines[header[0]] = " ".join(fields)
        elif kind == "joined" and len(lines) > 1:
            i = rng.randrange(len(lines) - 1)
            lines[i : i + 2] = [lines[i] + rng.choice(self.SEPARATORS[:3]) + lines[i + 1]]
        elif edges and kind not in ("count", "vertices", "joined"):
            i = rng.choice(edges)
            fields = lines[i].split()
            if kind == "reversed":
                fields[1:] = fields[:0:-1]
            elif kind == "duplicate":
                lines.insert(rng.randint(1, len(lines)), rng.choice((lines[i], f"e {fields[2]} {fields[1]}")))
            elif kind in ("sign", "zero", "non-integer"):
                at = rng.randint(1, 2)
                fields[at] = {"sign": "+", "zero": "0", "non-integer": "x"}[kind] + fields[at]
            elif kind == "separator":  # a line break splits the record
                fields[rng.randint(0, 1)] += rng.choice(self.SEPARATORS)
            elif kind == "range":
                fields[rng.randint(1, 2)] = str(rng.choice((0, m, m + 1, 2 * m + 1)))
            elif kind == "dropped":
                del lines[i]
                return lines
            elif kind == "record":
                fields[0] = rng.choice(("p", "E", "ee", "c"))
            lines[i] = " ".join(fields)
        return lines

    def test_written_layout_takes_the_bulk_path(self, rng):
        for m in range(1, 10):
            text = write_dimacs(random_btu(rng, m, rng.randint(1, min(3, m))))
            mat = _read_dimacs_bulk(text)
            assert mat is not None and mat == _read_dimacs_lines(text)

    def test_mutated_texts_read_as_the_line_reader_reads_them(self, rng):
        taken = 0
        cases = 2000
        for _ in range(cases):
            m = rng.randint(1, 8)
            lines = write_dimacs(random_btu(rng, m, rng.randint(1, min(3, m)))).splitlines()
            for _ in range(rng.randint(0, 3)):
                lines = self._mutate(rng, lines, m)
            end = rng.choice(("\n", "\n", "", "\r\n"))
            text = end.join(lines) + (end if rng.random() < 0.8 else "")
            expected = self._outcome(_read_dimacs_lines, text)
            assert self._outcome(read_dimacs, text) == expected, text
            bulk = _read_dimacs_bulk(text)
            if bulk is not None:
                assert bulk == expected, text
                taken += 1
        # both paths are exercised
        assert 0.05 * cases < taken < 0.95 * cases

    def test_line_break_inside_a_record_is_the_line_readers(self):
        # the tokens, the "\ne " and the "\n" counts fit the layout, but
        # splitlines also breaks at a form feed, so record 3 is "e 2"
        text = "p edge 6 2\ne 1 4\ne 2\x0c5\n"
        assert _read_dimacs_bulk(text) is None
        with pytest.raises(MalformedDimacs, match="line 3: bad edge line 'e 2'"):
            read_dimacs(text)

    def test_reversed_edge_reads_the_same_matrix(self):
        text = write_dimacs(ALL_ONES_3).replace("e 2 5\n", "e 5 2\n")
        assert _read_dimacs_bulk(text) is None
        assert read_dimacs(text) == ALL_ONES_3.matrix()


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
        a = ALL_ONES_3.matrix().to_array()
        assert a.shape == (3, 3) and a.sum() == 9

    def test_import_search_and_dense_leave_numpy_unloaded(self):
        proc = run_python(
            "import sys, girthmax\n"
            "for strategy in ('block', 'interleaved'):\n"
            "    for j_filter in (True, False):\n"
            "        cfg = girthmax.SearchConfig(k=4, strategy=strategy, j_range_filter=j_filter)\n"
            "        girthmax.search_r3(cfg)\n"
            "girthmax.write_dense(girthmax.Btu([girthmax.identity(3)]))\n"
            "b = girthmax.Btu([girthmax.circulant(7, 0), girthmax.circulant(7, 1), girthmax.circulant(7, 3)])\n"
            "mat = girthmax.read_alist(girthmax.write_alist(b))\n"
            "assert girthmax.read_dimacs(girthmax.write_dimacs(b)) == mat\n"
            "assert girthmax.same_matrix(girthmax.btu_from_matrix(mat), b)\n"
            "assert girthmax.girth_bfs(mat, want_witness=True).witness\n"
            "print('numpy' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
