from math import inf

import pytest

from girthmax.btu import BipartiteGraph, Btu
from girthmax.girth import TooLarge, girth_bfs, girth_oracle
from girthmax.perm import circulant, identity, relative_cycle_type

from conftest import networkx_girth, random_btu

K33 = Btu([identity(3), circulant(3, 1), circulant(3, 2)]).to_bipartite()
HEAWOOD = Btu([circulant(7, 0), circulant(7, 1), circulant(7, 3)]).to_bipartite()


def check_witness(graph: BipartiteGraph, witness, length):
    """A witness must be a closed walk of distinct, alternating, adjacent vertices."""
    assert len(witness) == length
    assert len(set(witness)) == length
    n_left = graph.n_left
    for a, b in zip(witness, witness[1:] + witness[:1]):
        left, right = (a, b) if a < n_left else (b, a)
        assert left < n_left <= right, "vertices must alternate sides"
        assert (right - n_left) in graph.adjacency[left]


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
            g = Btu([identity(m), circulant(m, 1)]).to_bipartite()
            assert girth_bfs(g).value == 2 * m
            assert girth_oracle(g).value == 2 * m

    def test_matching_is_acyclic(self):
        g = Btu([identity(5)]).to_bipartite()
        assert girth_bfs(g).value == inf
        assert not girth_bfs(g).is_finite
        assert girth_oracle(g).value == inf

    def test_nine_three_circulants(self):
        g = Btu([circulant(9, 0), circulant(9, 3), circulant(9, 4)]).to_bipartite()
        assert girth_bfs(g).value == 6
        assert girth_oracle(g).value == 6


class TestEnginesAgree:
    def test_random_sample(self, rng):
        for _ in range(60):
            m = rng.randint(2, 12)
            r = rng.choice([x for x in (2, 3, 4) if x <= m])
            b = random_btu(rng, m, r)
            graph = b.to_bipartite()
            fast = girth_bfs(graph)
            slow = girth_oracle(graph)
            assert fast.value == slow.value, b

    def test_two_constituent_closed_form(self, rng):
        # girth of a 2-permutation graph = twice the shortest relative cycle
        for _ in range(60):
            m = rng.randint(2, 12)
            b = random_btu(rng, m, 2)
            expected = 2 * min(relative_cycle_type(b.perms[0], b.perms[1]))
            assert girth_bfs(b.to_bipartite()).value == expected

    def test_networkx_on_larger_cubic(self, rng):
        # beyond the oracle's size guard: networkx is the independent reference
        for _ in range(50):
            b = random_btu(rng, rng.randint(3, 100), 3)
            assert girth_bfs(b.to_bipartite()).value == networkx_girth(b), b

    def test_values_even_or_infinite(self, rng):
        for _ in range(30):
            m = rng.randint(2, 10)
            b = random_btu(rng, m, rng.randint(1, min(3, m)))
            v = girth_bfs(b.to_bipartite()).value
            assert v == inf or (v % 2 == 0 and v >= 4)


class TestWitnesses:
    def test_bfs_witness_valid(self, rng):
        for _ in range(25):
            m = rng.randint(3, 12)
            b = random_btu(rng, m, rng.randint(2, 3))
            graph = b.to_bipartite()
            res = girth_bfs(graph, want_witness=True)
            if res.is_finite:
                check_witness(graph, res.witness, res.value)
        # beyond the oracle's size guard: networkx checks the value
        for _ in range(30):
            b = random_btu(rng, rng.randint(3, 100), 3)
            graph = b.to_bipartite()
            res = girth_bfs(graph, want_witness=True)
            assert res.value == networkx_girth(b), b
            check_witness(graph, res.witness, res.value)

    def test_oracle_witness_valid_and_canonical(self, rng):
        for _ in range(25):
            m = rng.randint(3, 10)
            b = random_btu(rng, m, rng.randint(2, 3))
            graph = b.to_bipartite()
            res = girth_oracle(graph)
            if res.is_finite:
                check_witness(graph, res.witness, res.value)
                assert res.witness[0] == min(res.witness)

    def test_heawood_witness(self):
        res = girth_bfs(HEAWOOD, want_witness=True)
        check_witness(HEAWOOD, res.witness, 6)


class TestCutoff:
    def test_flag_consistent_with_exact(self, rng):
        for _ in range(40):
            m = rng.randint(2, 12)
            b = random_btu(rng, m, rng.randint(2, min(3, m)))
            graph = b.to_bipartite()
            exact = girth_bfs(graph).value
            for cutoff in (4, 6, 8):
                res = girth_bfs(graph, cutoff=cutoff)
                if res.at_or_below_cutoff:
                    assert res.value <= cutoff
                    assert exact <= cutoff
                else:
                    assert res.value == exact

    def test_no_cutoff_never_flags(self, rng):
        b = random_btu(rng, 8, 3)
        assert not girth_bfs(b.to_bipartite()).at_or_below_cutoff


class TestOracleGuard:
    def test_too_large(self):
        g = Btu([identity(17)]).to_bipartite()
        with pytest.raises(TooLarge):
            girth_oracle(g)

    def test_boundary_allowed(self):
        g = Btu([identity(16), circulant(16, 1)]).to_bipartite()
        assert girth_oracle(g).value == 32
