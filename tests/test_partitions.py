import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affcells.errors import NotNilpotent, SizeMismatch
from affcells.laurent import LaurentMatrix, LaurentPoly
from affcells.partitions import (
    Composition,
    Partition,
    compositions_of,
    conjugate,
    constant_rank,
    dominance_leq,
    jordan_type,
    partitions_of,
    vector_rank,
)
from affcells.sampling import jordan_matrix, random_conjugate_frame


class TestConjugate:
    def test_column(self):
        assert conjugate(Partition((2,))) == Partition((1, 1))

    def test_worked_example(self):
        assert conjugate(Partition((6, 4, 4, 2, 1))) == Partition((5, 4, 3, 3, 1, 1))

    def test_row(self):
        assert conjugate(Partition((5,))) == Partition((1,) * 5)

    def test_involution_up_to_12(self):
        for n in range(1, 13):
            for mu in partitions_of(n):
                assert conjugate(conjugate(mu)) == mu


class TestDominance:
    def test_column_below_everything(self):
        for mu in partitions_of(6):
            assert dominance_leq(Partition((1,) * 6), mu)

    def test_simple_pair(self):
        assert dominance_leq(Partition((2, 2)), Partition((3, 1)))

    def test_incomparable(self):
        assert not dominance_leq(Partition((3, 3)), Partition((4, 1, 1)))
        assert not dominance_leq(Partition((4, 1, 1)), Partition((3, 3)))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            dominance_leq(Partition((2,)), Partition((3,)))

    def test_partial_order_axioms(self):
        parts = list(partitions_of(8))
        for mu in parts:
            assert dominance_leq(mu, mu)
        for mu in parts:
            for nu in parts:
                if dominance_leq(mu, nu) and dominance_leq(nu, mu):
                    assert mu == nu
        for mu in parts:
            for nu in parts:
                if not dominance_leq(mu, nu):
                    continue
                for rho in parts:
                    if dominance_leq(nu, rho):
                        assert dominance_leq(mu, rho)


class TestJordanType:
    def test_zero(self):
        assert jordan_type(LaurentMatrix.zero(4)) == Partition((1, 1, 1, 1))

    def test_single_block(self):
        x = LaurentMatrix.from_entries(2, {(1, 2): LaurentPoly.one()})
        assert jordan_type(x) == Partition((2,))

    def test_jordan_form_recovers_blocks(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert jordan_type(jordan_matrix(mu)) == mu

    def test_conjugation_invariance(self):
        rng = random.Random(13)
        for mu in partitions_of(4):
            base = jordan_matrix(mu)
            for _ in range(20):
                g, ginv = random_conjugate_frame(rng, 4)
                assert jordan_type(g * base * ginv) == mu

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotent):
            jordan_type(LaurentMatrix.identity(3))
        with pytest.raises(NotNilpotent):
            jordan_type(LaurentMatrix.diagonal([LaurentPoly.t(1), LaurentPoly.t(-1)]))


def _fraction_det(rows):
    total = Fraction(0)
    k = len(rows)
    for perm in permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += -term if inversions % 2 else term
    return total


def minor_rank(vectors):
    """Rank as the size of the largest nonzero minor; independent of elimination."""
    if not vectors:
        return 0
    width = len(vectors[0])
    for k in range(min(len(vectors), width), 0, -1):
        for rows in combinations(vectors, k):
            for cols in combinations(range(width), k):
                if _fraction_det([[row[c] for c in cols] for row in rows]):
                    return k
    return 0


families = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)).map(Fraction),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    )
)


class TestVectorRank:
    def test_non_square_families(self):
        one, zero = Fraction(1), Fraction(0)
        assert vector_rank([]) == 0
        assert vector_rank([[zero, zero, zero]]) == 0
        assert vector_rank([[one, zero, one], [zero, one, one]]) == 2
        assert vector_rank([[one, zero, one], [2 * one, zero, 2 * one]]) == 1
        tall = [[one, zero], [zero, one], [one, one], [one, -one]]
        assert vector_rank(tall) == 2

    @given(families)
    @settings(max_examples=80, deadline=None)
    def test_matches_minor_oracle_and_transpose(self, vectors):
        rank = vector_rank(vectors)
        assert rank == minor_rank(vectors)
        assert rank == vector_rank([list(col) for col in zip(*vectors)])

    def test_leaves_its_input_alone(self):
        vectors = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        vector_rank(vectors)
        assert vectors == [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]

    def test_constant_rank_agrees(self):
        rng = random.Random(3)
        for mu in partitions_of(5):
            g, ginv = random_conjugate_frame(rng, 5)
            x = g * jordan_matrix(mu) * ginv
            rows = [[p.coeff(0) for p in row] for row in x.rows]
            assert constant_rank(x) == vector_rank(rows) == 5 - len(mu)


class TestComposition:
    def test_blocks(self):
        lam = Composition((1, 4, 4, 2, 6))
        assert lam.n == 17 and lam.r == 5
        assert lam.d == (0, 1, 5, 9, 11, 17)
        assert list(lam.row(3)) == [6, 7, 8, 9]

    def test_column_partition(self):
        assert Composition((1, 4, 4, 2, 6)).column_partition() == Partition((5, 4, 3, 3, 1, 1))

    def test_enumeration_count(self):
        for n in range(1, 9):
            assert len(list(compositions_of(n))) == 2 ** (n - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Composition((1, 0, 2))
