import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affcells.errors import NotAUnit
from affcells.laurent import (
    BOREL_PLUS,
    ORD_ZERO,
    LaurentMatrix,
    LaurentPoly,
    borel_membership,
    det,
    invert,
    laurent_exact_div,
    poly_divmod,
)

t = LaurentPoly.t


def s0_matrix_2():
    # [[0, t^-1], [t, 0]]
    return LaurentMatrix([[LaurentPoly.zero(), t(-1)], [t(1), LaurentPoly.zero()]])


class TestOrd:
    def test_mixed_terms(self):
        p = t(-1) + LaurentPoly.monomial(1, 2)
        assert p.ord() == -1

    def test_zero_is_sentinel(self):
        assert LaurentPoly.zero().ord() is ORD_ZERO
        assert LaurentPoly.zero().ord() > 10**9

    def test_ord_of_reflection_determinant(self):
        # det [[0, t^-1], [t, 0]] = -1, computed by 2x2 cofactor expansion
        d = det(s0_matrix_2())
        assert d == LaurentPoly.constant(-1)
        assert d.ord() == 0


laurent_polys = st.dictionaries(
    st.integers(-4, 4), st.fractions(min_value=-5, max_value=5), max_size=4
).map(LaurentPoly)


class TestPolyArithmetic:
    @given(laurent_polys, laurent_polys)
    @settings(max_examples=60, deadline=None)
    def test_ord_multiplicative(self, p, q):
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).ord() == p.ord() + q.ord()

    @given(laurent_polys, laurent_polys, laurent_polys)
    @settings(max_examples=40, deadline=None)
    def test_ring_identities(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p

    def test_divmod_roundtrip(self):
        a = (t(2) + 1) * (t(1) + 3) + LaurentPoly.constant(5)
        q, r = poly_divmod(a, t(1) + 3)
        assert q * (t(1) + 3) + r == a
        assert r.degree() < 1

    def test_exact_division_detects_failure(self):
        assert laurent_exact_div(t(1) + 1, t(2) + 1) is None
        assert laurent_exact_div(t(1) + 1, t(1)) == LaurentPoly.one() + t(-1)
        assert laurent_exact_div((t(1) + 1) * (t(-2) + 2), t(1) + 1) == t(-2) + 2


class TestDet:
    def test_identity(self):
        assert det(LaurentMatrix.identity(4)) == LaurentPoly.one()

    def test_multiplicative_on_random_small_support(self):
        rng = random.Random(11)

        def rand_mat():
            return LaurentMatrix(
                [
                    [
                        LaurentPoly({rng.randint(-1, 1): rng.randint(-2, 2)})
                        for _ in range(4)
                    ]
                    for _ in range(4)
                ]
            )

        for _ in range(10):
            m, n = rand_mat(), rand_mat()
            assert det(m * n) == det(m) * det(n)


def leibniz_det(M):
    """det as the signed sum over permutations; independent of Bareiss."""
    total = LaurentPoly.zero()
    for perm in permutations(range(M.n)):
        inversions = sum(perm[a] > perm[b] for a in range(M.n) for b in range(a + 1, M.n))
        term = LaurentPoly.one()
        for i, j in enumerate(perm):
            term = term * M.rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


small_polys = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(LaurentPoly)
square_matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n)
).map(LaurentMatrix)


@st.composite
def unit_matrices(draw):
    """Products of elementary matrices and one diagonal of monomials c*t^k,
    so the determinant is a unit by construction."""
    n = draw(st.integers(1, 4))
    m = LaurentMatrix.diagonal(
        [
            LaurentPoly.monomial(draw(st.integers(-2, 2)), draw(st.sampled_from((1, -1, 2, -3))))
            for _ in range(n)
        ]
    )
    if n == 1:
        return m
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        p = draw(small_polys)
        m = m * (LaurentMatrix.identity(n) + LaurentMatrix.from_entries(n, {(i, j): p}))
    return m


class TestDetOracle:
    @given(square_matrices)
    @settings(max_examples=80, deadline=None)
    def test_bareiss_matches_leibniz(self, m):
        assert det(m) == leibniz_det(m)


class TestInvert:
    @given(unit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_inverse_of_unit_determinant(self, m):
        inv = invert(m)
        one = LaurentMatrix.identity(m.n)
        assert m * inv == one
        assert inv * m == one
        assert det(inv) * det(m) == LaurentPoly.one()

    def test_identity(self):
        assert invert(LaurentMatrix.identity(3)) == LaurentMatrix.identity(3)

    def test_monomial_diagonal(self):
        m = LaurentMatrix.diagonal([t(1), t(-1)])
        assert invert(m) == LaurentMatrix.diagonal([t(-1), t(1)])

    def test_unipotent_plus_nilpotent_series(self):
        n = 4
        nil = LaurentMatrix.from_entries(
            n, {(1, 2): LaurentPoly.one(), (2, 3): LaurentPoly.one(), (3, 4): LaurentPoly.one()}
        )
        m = LaurentMatrix.identity(n) - nil.scale_t(-1)
        series = LaurentMatrix.identity(n)
        power = LaurentMatrix.identity(n)
        for k in range(1, n):
            power = power * nil
            series = series + power.scale_t(-k)
        assert invert(m) == series

    def test_involution_and_unit_product(self):
        rng = random.Random(5)
        m = LaurentMatrix(
            [
                [LaurentPoly({0: rng.randint(-2, 2), 1: rng.randint(-1, 1)}) for _ in range(3)]
                for _ in range(3)
            ]
        )
        d = det(m)
        if not d.is_monomial():
            m = m + LaurentMatrix.identity(3) * LaurentPoly.constant(7)
        # force a unit determinant by using a triangular deformation instead
        m = LaurentMatrix.identity(3) + LaurentMatrix.from_entries(
            3, {(1, 2): t(1) + 2, (2, 3): t(-1), (1, 3): LaurentPoly.constant(3)}
        )
        inv = invert(m)
        assert m * inv == LaurentMatrix.identity(3)
        assert inv * m == LaurentMatrix.identity(3)
        assert invert(inv) == m

    def test_rejects_non_unit(self):
        m = LaurentMatrix.diagonal([t(1) + 1, LaurentPoly.one()])
        with pytest.raises(NotAUnit):
            invert(m)


class TestBorel:
    def test_identity_in_both(self):
        # The identity lies in the standard Iwahori and in its opposite; only
        # the standard one is classified.
        sides = borel_membership(LaurentMatrix.identity(2))
        assert sides == frozenset({BOREL_PLUS})

    def test_lower_t_multiple_in_plus(self):
        m = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.zero()], [t(1), LaurentPoly.one()]])
        assert borel_membership(m) == frozenset({BOREL_PLUS})

    def test_constant_below_diagonal_in_neither(self):
        m = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.zero()], [LaurentPoly.one(), LaurentPoly.one()]])
        assert borel_membership(m) == frozenset()

    def test_nonconstant_determinant_rejected(self):
        m = LaurentMatrix.diagonal([t(1) + 1, LaurentPoly.one()])
        assert borel_membership(m) == frozenset()
