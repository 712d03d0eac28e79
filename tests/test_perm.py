import dataclasses
import itertools
import random
from math import factorial, gcd

import pytest

from girthmax.perm import (
    Permutation,
    ScalingStrategy,
    circulant,
    compose,
    cycle_type,
    enumerate_k_cycles,
    identity,
    inverse,
    one_based,
    relative_cycle_type,
    scale_up,
)

from conftest import round_trips


def random_perm(rng, n):
    image = list(range(n))
    rng.shuffle(image)
    return Permutation(image)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 2])
        with pytest.raises(ValueError):
            Permutation([])

    def test_equality_and_hash(self):
        assert Permutation([1, 0]) == Permutation((1, 0))
        assert hash(Permutation([1, 0])) == hash(Permutation([1, 0]))
        assert Permutation([1, 0]) != Permutation([0, 1])
        p = Permutation([2, 0, 1])
        for copied in round_trips(p):
            assert copied == p and hash(copied) == hash(p) and repr(copied) == repr(p)

    def test_immutable(self):
        p = identity(3)
        with pytest.raises(AttributeError):
            p.image = (0, 2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.image
        # a name that is not a field (here a property) is refused the same way
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.size = 4
        assert p.image == (0, 1, 2)


class TestBasics:
    def test_identity(self):
        assert identity(3).image == (0, 1, 2)
        assert identity(1).image == (0,)
        assert cycle_type(identity(5)) == (1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            identity(0)

    def test_circulant(self):
        assert circulant(5, 2).image == (2, 3, 4, 0, 1)
        assert circulant(5, 0) == identity(5)
        assert cycle_type(circulant(6, 2)) == (3, 3)
        for bad in (-1, 5):
            with pytest.raises(ValueError):
                circulant(5, bad)

    def test_compose(self):
        assert compose(circulant(5, 2), circulant(5, 3)) == identity(5)
        p = Permutation([2, 0, 3, 1])
        assert compose(p, identity(4)) == p
        assert compose(identity(4), p) == p
        assert compose(p, inverse(p)) == identity(4)
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    def test_compose_applies_right_first(self):
        p = Permutation([1, 2, 0])
        q = Permutation([0, 2, 1])
        assert compose(p, q).image == tuple(p.image[q.image[i]] for i in range(3))

    def test_inverse(self):
        assert inverse(Permutation([1, 2, 0])) == Permutation([2, 0, 1])
        assert inverse(identity(4)) == identity(4)
        assert inverse(circulant(7, 3)) == circulant(7, 4)

    def test_cycle_type(self):
        assert cycle_type(Permutation([1, 2, 0])) == (3,)
        assert cycle_type(identity(4)) == (1, 1, 1, 1)
        assert cycle_type(circulant(12, 8)) == (3, 3, 3, 3)

    def test_cycle_type_sums_to_n(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(1, 20)
            parts = cycle_type(random_perm(rng, n))
            assert sum(parts) == n
            assert sorted(parts, reverse=True) == list(parts)

    def test_circulant_cycle_structure(self):
        for n in range(1, 16):
            for j in range(n):
                parts = cycle_type(circulant(n, j))
                g = gcd(n, j) if j else n
                assert parts == tuple([n // g] * g)

    def test_one_based(self):
        assert one_based(Permutation([1, 2, 0])) == "2 3 1"
        assert one_based(identity(3)) == "1 2 3"


class TestRelativeCycleType:
    def test_circulant_cases(self):
        assert relative_cycle_type(circulant(6, 1), identity(6)) == (6,)
        assert relative_cycle_type(circulant(9, 2), circulant(9, 5)) == (3, 3, 3)

    def test_self_relative_is_trivial(self):
        rng = random.Random(2)
        for _ in range(20):
            p = random_perm(rng, rng.randint(1, 12))
            assert relative_cycle_type(p, p) == tuple([1] * p.size)

    def test_symmetric(self):
        # p q^-1 and q p^-1 are mutually inverse, hence same cycle type
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 12)
            p, q = random_perm(rng, n), random_perm(rng, n)
            assert relative_cycle_type(p, q) == relative_cycle_type(q, p)


class TestScaleUp:
    def test_block_examples(self):
        assert scale_up(Permutation([1, 0]), 2).image == (2, 3, 0, 1)
        assert scale_up(Permutation([1, 2, 0]), 3) == circulant(9, 3)

    def test_interleaved_example(self):
        p = scale_up(Permutation([1, 0]), 2, ScalingStrategy.INTERLEAVED)
        assert p.image == (1, 0, 3, 2)

    def test_scale_by_one_is_identity_op(self):
        rng = random.Random(4)
        for strategy in ScalingStrategy:
            p = random_perm(rng, 7)
            assert scale_up(p, 1, strategy) == p

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            scale_up(identity(3), 0)

    @pytest.mark.parametrize("strategy", list(ScalingStrategy))
    def test_cycle_type_replicates(self, strategy):
        # each original cycle reappears in all k offset classes
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 8)
            k = rng.randint(1, 24 // n) if n <= 24 else 1
            q = random_perm(rng, n)
            scaled = scale_up(q, k, strategy)
            expected = sorted(cycle_type(q) * k, reverse=True)
            assert cycle_type(scaled) == tuple(expected)

    @pytest.mark.parametrize("strategy", list(ScalingStrategy))
    def test_fixed_point_free_is_preserved(self, strategy):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 8)
            q = random_perm(rng, n)
            if any(q.image[i] == i for i in range(n)):
                continue
            scaled = scale_up(q, rng.randint(1, 3), strategy)
            assert all(scaled.image[i] != i for i in range(scaled.size))


class TestEnumerateKCycles:
    def test_k3(self):
        assert [p.image for p in enumerate_k_cycles(3)] == [(1, 2, 0), (2, 0, 1)]

    def test_k2(self):
        assert [p.image for p in enumerate_k_cycles(2)] == [(1, 0)]

    def test_counts(self):
        for k in range(2, 8):
            assert sum(1 for _ in enumerate_k_cycles(k)) == factorial(k - 1)

    def test_matches_brute_force_in_lex_order(self):
        # itertools.permutations is lexicographic, so equality checks both
        # membership and ordering
        for k in range(2, 8):
            got = [p.image for p in enumerate_k_cycles(k)]
            want = [img for img in itertools.permutations(range(k)) if cycle_type(Permutation(img)) == (k,)]
            assert got == want

    def test_all_are_full_cycles_no_duplicates(self):
        for k in (5, 6):
            seen = set()
            for p in enumerate_k_cycles(k):
                assert cycle_type(p) == (k,)
                assert p.image not in seen
                seen.add(p.image)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            list(enumerate_k_cycles(1))
