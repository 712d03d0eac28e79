from math import inf
from types import SimpleNamespace

import pytest

from girthmax.btu import BinaryMatrix, Btu, read_alist, read_dimacs, write_alist, write_dimacs
from girthmax.girth import TooLarge, girth_bfs, girth_oracle
from girthmax.perm import circulant, identity, relative_cycle_type

from conftest import networkx_girth, random_btu, seeded_lift, table_1_winner

K33 = Btu([identity(3), circulant(3, 1), circulant(3, 2)]).matrix()
HEAWOOD = Btu([circulant(7, 0), circulant(7, 1), circulant(7, 3)]).matrix()


def check_witness(graph: BinaryMatrix, witness, length):
    """A witness must be a closed walk of distinct, alternating, adjacent
    vertices; row i is numbered i and column c is numbered n_rows + c."""
    assert len(witness) == length
    assert len(set(witness)) == length
    n_rows = graph.n_rows
    for a, b in zip(witness, witness[1:] + witness[:1]):
        row, col = (a, b) if a < n_rows else (b, a)
        assert row < n_rows <= col < n_rows + graph.n_cols, "vertices must alternate sides"
        assert (col - n_rows) in graph.rows[row]


def union(*graphs: BinaryMatrix) -> BinaryMatrix:
    """Disjoint union; rows and columns keep the order given."""
    rows: list[list[int]] = []
    n_cols = 0
    for g in graphs:
        rows.extend([n_cols + c for c in nbrs] for nbrs in g.rows)
        n_cols += g.n_cols
    return BinaryMatrix(len(rows), n_cols, rows)


def ring(m: int) -> BinaryMatrix:
    """[I_m, C_1]: one 2m-cycle."""
    return Btu([identity(m), circulant(m, 1)]).matrix()


class TestKnownGraphs:
    def test_k33(self):
        assert girth_bfs(K33).value == 4
        assert girth_oracle(K33).value == 4

    def test_heawood(self):
        assert girth_bfs(HEAWOOD).value == 6
        assert girth_oracle(HEAWOOD).value == 6

    def test_two_circulant_cycle(self):
        # [I_m, C_1] is the 2m-cycle
        for m in range(3, 9):
            g = Btu([identity(m), circulant(m, 1)]).matrix()
            assert girth_bfs(g).value == 2 * m
            assert girth_oracle(g).value == 2 * m

    def test_matching_is_acyclic(self):
        g = Btu([identity(5)]).matrix()
        assert girth_bfs(g).value == inf
        assert not girth_bfs(g).is_finite
        assert girth_oracle(g).value == inf

    def test_nine_three_circulants(self):
        g = Btu([circulant(9, 0), circulant(9, 3), circulant(9, 4)]).matrix()
        assert girth_bfs(g).value == 6
        assert girth_oracle(g).value == 6


class TestEnginesAgree:
    def test_random_sample(self, rng):
        for _ in range(60):
            m = rng.randint(2, 12)
            r = rng.choice([x for x in (2, 3, 4) if x <= m])
            b = random_btu(rng, m, r)
            graph = b.matrix()
            fast = girth_bfs(graph)
            slow = girth_oracle(graph)
            assert fast.value == slow.value, b

    def test_two_constituent_closed_form(self, rng):
        # girth of a 2-permutation graph = twice the shortest relative cycle
        for _ in range(60):
            m = rng.randint(2, 12)
            b = random_btu(rng, m, 2)
            expected = 2 * min(relative_cycle_type(b.perms[0], b.perms[1]))
            assert girth_bfs(b.matrix()).value == expected

    def test_networkx_on_larger_cubic(self, rng):
        # beyond the oracle's size guard: networkx is the independent reference
        for _ in range(50):
            b = random_btu(rng, rng.randint(3, 100), 3)
            assert girth_bfs(b.matrix()).value == networkx_girth(b), b

    def test_values_even_or_infinite(self, rng):
        for _ in range(30):
            m = rng.randint(2, 10)
            b = random_btu(rng, m, rng.randint(1, min(3, m)))
            v = girth_bfs(b.matrix()).value
            assert v == inf or (v % 2 == 0 and v >= 4)


class TestReadBackLifts:
    def test_girth_and_witness_match_networkx(self, rng):
        # beyond the oracle's size guard: relabeled lifts of the Table 1
        # winners, m = 50..300, read back from alist and from DIMACS as
        # `girthmax girth --in` reads them
        girths = set()
        for i in range(30):
            k = (5, 6, 7)[i % 3]
            lifted = seeded_lift(table_1_winner(k), rng.randint(-(-50 // (k * k)), 300 // (k * k)), rng)
            expected = networkx_girth(lifted)
            for mat in (read_alist(write_alist(lifted)), read_dimacs(write_dimacs(lifted))):
                assert mat == lifted.matrix()
                res = girth_bfs(mat, want_witness=True)
                assert res.value == expected
                check_witness(mat, res.witness, expected)
            girths.add(expected)
        assert girths == {6, 8, 10}  # lifts can beat their bases (girth 6)


class TestWitnesses:
    def test_bfs_witness_valid(self, rng):
        for _ in range(25):
            m = rng.randint(3, 12)
            b = random_btu(rng, m, rng.randint(2, 3))
            graph = b.matrix()
            res = girth_bfs(graph, want_witness=True)
            if res.is_finite:
                check_witness(graph, res.witness, res.value)
        # beyond the oracle's size guard: networkx checks the value
        for _ in range(30):
            b = random_btu(rng, rng.randint(3, 100), 3)
            graph = b.matrix()
            res = girth_bfs(graph, want_witness=True)
            assert res.value == networkx_girth(b), b
            check_witness(graph, res.witness, res.value)

    def test_oracle_witness_valid_and_canonical(self, rng):
        for _ in range(25):
            m = rng.randint(3, 10)
            b = random_btu(rng, m, rng.randint(2, 3))
            graph = b.matrix()
            res = girth_oracle(graph)
            if res.is_finite:
                check_witness(graph, res.witness, res.value)
                assert res.witness[0] == min(res.witness)

    def test_heawood_witness(self):
        res = girth_bfs(HEAWOOD, want_witness=True)
        check_witness(HEAWOOD, res.witness, 6)


class TestCutoff:
    def test_no_cutoff_never_flags(self, rng):
        # the graph_io benchmark check fails any result that carries the flag
        for _ in range(20):
            graph = random_btu(rng, rng.randint(3, 60), 3).matrix()
            for want_witness in (False, True):
                assert not girth_bfs(graph, want_witness=want_witness).at_or_below_cutoff


class TestWorkingCopy:
    def test_input_rows_untouched(self, rng):
        for _ in range(20):
            b = random_btu(rng, rng.randint(3, 60), 3)
            rows = [list(nbrs) for nbrs in b.matrix().rows]
            graph = SimpleNamespace(rows=rows, n_cols=b.m)
            before = [list(nbrs) for nbrs in rows]
            for want_witness in (False, True):
                girth_bfs(graph, want_witness=want_witness)
                assert graph.rows is rows and rows == before

    def test_shortest_cycles_avoid_left_zero(self):
        # left 0 lies on a longer cycle, or in a component with none
        matching = Btu([identity(3)]).matrix()
        for graph, expected in (
            (union(ring(4), HEAWOOD), 6),
            (union(ring(5), matching, HEAWOOD, ring(3)), 6),
            (union(ring(20), ring(20), HEAWOOD), 6),
            (union(matching, ring(4), K33), 4),
        ):
            res = girth_bfs(graph, want_witness=True)
            assert res.value == expected
            check_witness(graph, res.witness, expected)
            if graph.n_rows + graph.n_cols <= 32:
                assert girth_oracle(graph).value == expected

    def test_disjoint_unions(self, rng):
        for _ in range(20):
            parts = [random_btu(rng, rng.randint(3, 40), rng.randint(2, 3)) for _ in range(rng.randint(2, 4))]
            graph = union(*(b.matrix() for b in parts))
            expected = min(networkx_girth(b) for b in parts)
            res = girth_bfs(graph, want_witness=True)
            assert res.value == expected, parts
            check_witness(graph, res.witness, expected)


class TestNonSquare:
    """r x c matrices with r != c and rows of any degree, empty ones included."""

    @staticmethod
    def random_matrix(rng, n_rows, n_cols):
        if rng.random() < 0.25:  # dense: a row may hold any number of ones
            density = rng.random()
            rows = [[c for c in range(n_cols) if rng.random() < density] for _ in range(n_rows)]
        else:  # cut from a random cubic BTU and thinned, for the longer girths
            full = random_btu(rng, max(n_rows, n_cols), min(3, n_rows, n_cols)).matrix().rows
            keep = rng.uniform(0.6, 1)
            rows = [[c for c in full[i] if c < n_cols and rng.random() < keep] for i in range(n_rows)]
        return BinaryMatrix(n_rows, n_cols, rows)

    @staticmethod
    def networkx_girth(mat):
        nx = pytest.importorskip("networkx")
        graph = nx.Graph()
        graph.add_nodes_from(range(mat.n_rows + mat.n_cols))
        graph.add_edges_from((i, mat.n_rows + c) for i, row in enumerate(mat.rows) for c in row)
        return nx.girth(graph)

    def check(self, mat, res):
        expected = self.networkx_girth(mat)
        assert res.value == expected, mat.rows
        if res.is_finite:
            check_witness(mat, res.witness, expected)
        else:
            assert res.witness is None

    def test_engines_match_networkx(self, rng):
        values = set()
        for _ in range(200):
            n_rows = rng.randint(1, 16)
            n_cols = rng.choice([c for c in range(1, 33 - n_rows) if c != n_rows])
            mat = self.random_matrix(rng, n_rows, n_cols)
            res = girth_bfs(mat, want_witness=True)
            self.check(mat, res)
            self.check(mat, girth_oracle(mat))
            if any(not row for row in mat.rows):
                values.add(res.value)
        assert {4, 6, 8, inf} <= values  # empty rows beside short, long and no cycles

    @pytest.mark.parametrize("n_rows, n_cols", [(2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
    def test_every_small_matrix_matches_the_oracle(self, n_rows, n_cols):
        # empty rows, isolated columns and n_rows != n_cols, where a slip in
        # girth_bfs's renumbering of the witness would show
        for bits in range(1 << (n_rows * n_cols)):
            rows = [[c for c in range(n_cols) if bits >> (i * n_cols + c) & 1] for i in range(n_rows)]
            mat = BinaryMatrix(n_rows, n_cols, rows)
            res = girth_bfs(mat, want_witness=True)
            assert res.value == girth_oracle(mat).value, rows
            if res.is_finite:
                check_witness(mat, res.witness, res.value)
            else:
                assert res.witness is None

    def test_larger_than_the_oracle(self, rng):
        values = set()
        for _ in range(30):
            n_rows = rng.randint(20, 100)
            n_cols = rng.choice([n_rows // 2, n_rows + 7, 2 * n_rows])
            mat = self.random_matrix(rng, n_rows, n_cols)
            res = girth_bfs(mat, want_witness=True)
            self.check(mat, res)
            values.add(res.value)
        assert max(values - {inf}) >= 10


class TestOracleGuard:
    def test_too_large(self):
        g = Btu([identity(17)]).matrix()
        with pytest.raises(TooLarge):
            girth_oracle(g)

    def test_boundary_allowed(self):
        g = Btu([identity(16), circulant(16, 1)]).matrix()
        assert girth_oracle(g).value == 32
