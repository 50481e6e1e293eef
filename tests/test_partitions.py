import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affcells.cells import psi_map
from affcells.errors import NotNilpotent, SizeMismatch
from affcells.laurent import LaurentMatrix, LaurentPoly, det
from affcells.partitions import (
    Composition,
    Partition,
    compositions_of,
    conjugate,
    constant_rows,
    dominance_leq,
    jordan_type,
    nilpotent_powers,
    partitions_of,
    row_product,
    scalar_det,
    vector_rank,
)
from affcells.sampling import jordan_matrix, random_conjugate_frame
from planting import leibniz_det


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


class TestNilpotentPowers:
    """nilpotent_powers against dense row_product powers of the same rows."""

    @staticmethod
    def _dense_powers(x):
        rows = constant_rows(x)
        powers, power = [], rows
        while any(map(any, power)):
            powers.append(power)
            power = row_product(power, rows)
        return powers

    def test_matches_dense_powers(self):
        rng = random.Random(29)
        for n in range(1, 7):
            for mu in partitions_of(n):
                base = jordan_matrix(mu)
                g, ginv = random_conjugate_frame(rng, n)
                for x in (base, g * base * ginv):
                    powers = nilpotent_powers(x)
                    # X^k != 0 exactly for k below the largest block.
                    assert len(powers) == mu.parts[0] - 1
                    assert all(c for power in powers for row in power for c in row.values())
                    dense = [[[row.get(j, 0) for j in range(n)] for row in power]
                             for power in powers]
                    assert dense == self._dense_powers(x)

    def test_zero(self):
        assert nilpotent_powers(LaurentMatrix.zero(4)) == []

    @pytest.mark.parametrize("x", [
        jordan_matrix(Partition((4,))) + LaurentMatrix.from_entries(4, {(4, 1): 1}),
        LaurentMatrix.from_entries(2, {(1, 2): LaurentPoly.t(1)}),
        # X^2 = 0 over k[t, t^-1]: only the constancy check rejects it
        LaurentMatrix.from_entries(2, {(1, 2): LaurentPoly.one() + LaurentPoly.t(1)}),
    ], ids=["n_cycle", "t_entry", "mixed_entry"])
    @pytest.mark.parametrize("fn", [nilpotent_powers, jordan_type, psi_map],
                             ids=["nilpotent_powers", "jordan_type", "psi_map"])
    def test_rejects(self, fn, x):
        with pytest.raises(NotNilpotent):
            fn(x)


# Exact scalars as the package stores them: an int when integral, else a
# Fraction.  Zeros are frequent, so pivots are often missing from the
# diagonal (a row swap) or from a whole column (a singular matrix).
SCALARS = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def minor_rank(vectors):
    """Rank as the size of the largest nonzero minor; independent of elimination."""
    if not vectors:
        return 0
    width = len(vectors[0])
    for k in range(min(len(vectors), width), 0, -1):
        for rows in combinations(vectors, k):
            for cols in combinations(range(width), k):
                if leibniz_det([[row[c] for c in cols] for row in rows]):
                    return k
    return 0


families = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from(SCALARS), min_size=shape[1], max_size=shape[1]),
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
        # No pivot in column 2: column 3's pivot follows a previous pivot of 2.
        assert vector_rank([[2, 1, 0], [4, 2, 1], [6, 3, 5]]) == 2

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
            assert vector_rank(rows) == 5 - len(mu)


square_scalar_rows = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from(SCALARS), min_size=n, max_size=n),
                       min_size=n, max_size=n)
)


def _exact(c):
    """An int, or a Fraction that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


class TestScalarRows:
    """The helpers for constant matrices on rows of exact scalars, against
    Leibniz's formula and the Laurent matrix operations."""

    @given(square_scalar_rows)
    @settings(max_examples=150, deadline=None)
    def test_det_matches_leibniz_and_laurent_det(self, rows):
        d = scalar_det(rows)
        assert _exact(d)
        assert d == leibniz_det(rows)
        assert det(LaurentMatrix(rows)) == d

    @given(square_scalar_rows, st.data())
    @settings(max_examples=60, deadline=None)
    def test_singular_rows(self, rows, data):
        # A row repeated as a multiple of another, over int and Fraction.
        if not rows:
            return
        n = len(rows)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        c = data.draw(st.sampled_from(SCALARS))
        rows = [list(r) for r in rows]
        if i != j:
            rows[j] = [c * x for x in rows[i]]
        else:
            rows[i] = [0] * n
        assert scalar_det(rows) == 0 == leibniz_det(rows)

    def test_row_swaps(self):
        assert scalar_det([[0, 1], [1, 0]]) == -1
        assert scalar_det([[0, 0, 2], [0, 3, 0], [Fraction(1, 2), 0, 0]]) == -3
        assert scalar_det([[0, 1, 1], [0, 1, 2], [5, 7, 9]]) == 5
        assert scalar_det([[1, 2], [2, 4]]) == 0
        assert scalar_det([]) == 1

    def test_leaves_its_input_alone(self):
        rows = [[0, Fraction(1, 2)], [3, 4]]
        scalar_det(rows)
        assert rows == [[0, Fraction(1, 2)], [3, 4]]

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(*[
        st.lists(st.lists(st.sampled_from(SCALARS), min_size=n, max_size=n),
                 min_size=n, max_size=n)] * 2)))
    @settings(max_examples=80, deadline=None)
    def test_product_matches_laurent_product(self, pair):
        a, b = pair
        product = row_product(a, b)
        assert product == constant_rows(LaurentMatrix(a) * LaurentMatrix(b))
        assert all(_exact(c) for row in product for c in row)

    def test_constant_rows(self):
        m = LaurentMatrix([[1, Fraction(1, 2)], [0, -3]])
        assert constant_rows(m) == [[1, Fraction(1, 2)], [0, -3]]
        assert constant_rows(LaurentMatrix.diagonal([LaurentPoly.t(1), 1])) is None
        assert constant_rows(LaurentMatrix.diagonal([LaurentPoly.t(-1) + 1, 1])) is None


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
