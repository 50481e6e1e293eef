import math
import operator
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affcells import laurent
from affcells.errors import IdentityFailed, NotAUnit
from affcells.laurent import (
    ORD_ZERO,
    LaurentMatrix,
    LaurentPoly,
    borel_membership,
    det,
    invert,
    laurent_exact_div,
    poly_divmod,
)
from affcells.sampling import random_iwahori, random_window
from planting import leibniz_det, plant

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

    @pytest.mark.parametrize("c", [0, 1, -2, Fraction(1, 2)])
    def test_constant_hashes_like_the_scalar_it_equals(self, c):
        p = LaurentPoly.constant(c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1


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


small_polys = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(LaurentPoly)
square_matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n)
).map(LaurentMatrix)


@st.composite
def unit_matrices(draw, units=(1, -1, 2, -3), polys=small_polys):
    """Products of elementary matrices and one diagonal of monomials c*t^k,
    so the determinant is a unit by construction."""
    n = draw(st.integers(1, 4))
    m = LaurentMatrix.diagonal(
        [
            LaurentPoly.monomial(draw(st.integers(-2, 2)), draw(st.sampled_from(units)))
            for _ in range(n)
        ]
    )
    if n == 1:
        return m
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        p = draw(polys)
        m = m * (LaurentMatrix.identity(n) + LaurentMatrix.from_entries(n, {(i, j): p}))
    return m


class TestDetOracle:
    @given(square_matrices)
    @settings(max_examples=80, deadline=None)
    def test_bareiss_matches_leibniz(self, m):
        assert det(m) == leibniz_det(m.rows)


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
        m = LaurentMatrix.identity(n) - nil * t(-1)
        series = LaurentMatrix.identity(n)
        power = LaurentMatrix.identity(n)
        for k in range(1, n):
            power = power * nil
            series = series + power * t(-k)
        assert invert(m) == series

    def test_involution_and_unit_product(self):
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


def cofactor_inverse(M):
    """The adjugate over det, every minor by Leibniz; independent of Bareiss."""
    d = leibniz_det(M.rows)
    assert d.is_monomial()
    ((exp, coeff),) = d.terms.items()
    n = M.n
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = leibniz_det(
                [[M.rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            )
            if (i + j) % 2:
                cof = -cof
            out[j][i] = (t(-exp) * cof).scale(Fraction(1) / coeff)
    return LaurentMatrix(out)


def signed_permutation_lift():
    """A monomial matrix whose (1,1) entry is zero, so elimination must swap
    rows, with entries of negative order and coefficients other than 1."""
    return LaurentMatrix.from_entries(
        4, {(1, 3): t(-2), (2, 1): LaurentPoly.monomial(1, -2), (3, 4): t(3), (4, 2): -t(-1)}
    )


class TestInvertOracle:
    @given(unit_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_cofactor_adjugate(self, m):
        assert invert(m) == cofactor_inverse(m)

    @pytest.mark.parametrize(
        "m",
        [
            s0_matrix_2(),
            signed_permutation_lift(),
            # the leading 2x2 minor of this product is zero
            signed_permutation_lift()
            * (
                LaurentMatrix.identity(4)
                + LaurentMatrix.from_entries(4, {(1, 2): t(-1) + 3, (3, 4): t(1)})
            ),
            LaurentMatrix.identity(3)
            + LaurentMatrix.from_entries(3, {(1, 3): t(-3), (2, 1): t(-1) + t(2)}),
            LaurentMatrix([[LaurentPoly.monomial(-2, -3)]]),
        ],
    )
    def test_explicit_cases(self, m):
        inv = invert(m)
        assert inv == cofactor_inverse(m)
        assert m * inv == LaurentMatrix.identity(m.n)

    def test_empty_matrix(self):
        assert invert(LaurentMatrix([])) == LaurentMatrix([])

    @pytest.mark.parametrize(
        "m",
        [
            LaurentMatrix.zero(3),
            LaurentMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]),
            LaurentMatrix.diagonal([t(1) + 1, LaurentPoly.one()]),
            # a row swap and a t-shift: det = -(t^-2 + t^-1)
            LaurentMatrix([[LaurentPoly.zero(), t(-1) + 1], [t(-1), LaurentPoly.zero()]]),
            # no swap, every entry of negative order: det = t^-4 + t^-3
            LaurentMatrix.diagonal([t(1) + 1, LaurentPoly.one()]) * t(-2),
        ],
    )
    def test_non_unit_message_names_det(self, m):
        with pytest.raises(NotAUnit, match=re.escape(f"determinant {leibniz_det(m.rows)!r} is not")):
            invert(m)


class TestLaurentEntries:
    """det and invert eliminate on the Laurent entries as given: scaling M by
    t^k multiplies det by t^(nk) and the inverse by t^-k."""

    @given(unit_matrices(), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_det_of_t_scaled_matrix(self, m, k):
        assert det(m * t(k)) == det(m).shift(m.n * k)

    @given(unit_matrices(), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_invert_of_t_scaled_matrix(self, m, k):
        assert invert(m * t(k)) == invert(m) * t(-k)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, p):
    t_ = sympy.Symbol("t")
    terms = (sympy.Rational(c.numerator, c.denominator) * t_**e for e, c in p.terms.items())
    return sum(terms, sympy.Integer(0))


def matrix_to_sympy(sympy, M):
    return sympy.Matrix([[to_sympy(sympy, p) for p in row] for row in M.rows])


class TestSympyOracle:
    """det and invert against sympy's symbolic linear algebra in t."""

    @given(m=square_matrices)
    @settings(max_examples=40, deadline=None)
    def test_det(self, sympy, m):
        want = matrix_to_sympy(sympy, m).det(method="berkowitz")
        assert sympy.expand(want - to_sympy(sympy, det(m))) == 0

    @given(m=unit_matrices())
    @settings(max_examples=25, deadline=None)
    def test_invert(self, sympy, m):
        want = matrix_to_sympy(sympy, m).inv(method="DM")
        assert all(sympy.cancel(x) == 0 for x in want - matrix_to_sympy(sympy, invert(m)))


def coefficients(*polys):
    return [c for p in polys for c in p.terms.values()]


def entries(M):
    return [p for row in M.rows for p in row]


def assert_exact(coeffs):
    """Nonzero, an int when integral, otherwise a Fraction: never a float or
    a bool, and never an integral Fraction."""
    for c in coeffs:
        assert type(c) in (int, Fraction), repr(c)
        assert c != 0
        assert type(c) is int or c.denominator != 1, repr(c)


fraction_matrices = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(laurent_polys, min_size=n, max_size=n), min_size=n, max_size=n)
).map(LaurentMatrix)


@st.composite
def integer_unimodular(draw):
    """Integer-coefficient matrices with det +-t^k: elementary factors over
    Z[t, t^-1] and one diagonal of +-t^k."""
    n = draw(st.integers(1, 4))
    m = LaurentMatrix.diagonal(
        [LaurentPoly.monomial(draw(st.integers(-2, 2)), draw(st.sampled_from((1, -1))))
         for _ in range(n)]
    )
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        m = m * (LaurentMatrix.identity(n) + LaurentMatrix.from_entries(n, {(i, j): draw(small_polys)}))
    return m


# Every fraction in [-3, 3] with denominator at most 6, drawn uniformly
# (st.fractions over the same range is slower to draw).
SIXTHS = sorted({Fraction(p, q) for q in range(1, 7) for p in range(-3 * q, 3 * q + 1)})
fraction_polys = st.dictionaries(st.integers(-2, 2), st.sampled_from(SIXTHS), max_size=2).map(LaurentPoly)


class TestFractionRows:
    """det and invert scale each row to integers before Bareiss, and det
    divides the row scales back out: on rows holding Fractions they agree
    with the Leibniz and cofactor oracles, which scale nothing."""

    @given(fraction_matrices)
    @settings(max_examples=80, deadline=None)
    def test_det_matches_leibniz(self, m):
        assert det(m) == leibniz_det(m.rows)

    @given(unit_matrices(units=(1, -1, Fraction(1, 2), Fraction(-2, 3)), polys=fraction_polys))
    @settings(max_examples=60, deadline=None)
    def test_invert_matches_cofactor_adjugate(self, m):
        assert invert(m) == cofactor_inverse(m)

    @pytest.mark.parametrize("m, message", [
        (LaurentMatrix([[t(1).scale(Fraction(1, 2)) + Fraction(1, 3), Fraction(1, 5)],
                        [LaurentPoly.zero(), Fraction(3, 4)]]),
         "determinant 1/4 + 3/8*t is not a monomial"),
        # a row swap, and row scales 4 and 30 to divide back out
        (LaurentMatrix([[LaurentPoly.zero(), Fraction(3, 4)],
                        [t(1).scale(Fraction(1, 2)) + Fraction(1, 3), Fraction(1, 5)]]),
         "determinant -1/4 + -3/8*t is not a monomial"),
    ], ids=["upper", "swapped"])
    def test_non_unit_message_names_det(self, m, message):
        with pytest.raises(NotAUnit) as err:
            invert(m)
        assert str(err.value) == message


def upper_235():
    """Upper triangular with diagonal (2, 3, 5): at each step the pivot
    differs from the previous one while the rows below it, and for `invert`
    the first row at the second step, are zero in its column."""
    return LaurentMatrix([[2, 0, t(-1) + 1], [0, 3, t(2)], [0, 0, 5]])


def fraction_upper():
    """Row scales 2, 12 and 1: the first pivot equals prev = 1, the second
    (9) does not, and the first and third rows are zero in its column."""
    return LaurentMatrix([[Fraction(1, 2), 0, t(1)],
                          [0, Fraction(3, 4), t(-1).scale(Fraction(2, 3))],
                          [0, 0, t(1) * 5]])


ROW_SKIP_CASES = [upper_235(), fraction_upper()]


def plant_in_step(monkeypatch, old, new):
    """Replace `_bareiss_step` by its own source with `old` replaced by `new`."""
    monkeypatch.setattr(laurent, "_bareiss_step", plant(laurent._bareiss_step, old, new))


def assert_wrong(matrices):
    """det is wrong on each matrix, and invert wrong or refusing."""
    for m in matrices:
        assert det(m) != leibniz_det(m.rows)
        try:
            assert invert(m) != cofactor_inverse(m)
        except (NotAUnit, IdentityFailed):
            pass


class TestBareissRowSkip:
    """A Bareiss step leaves a row that is zero in the pivot column as it is
    only when the pivot equals the previous one; otherwise the row is
    multiplied by piv / prev."""

    @pytest.mark.parametrize("m", ROW_SKIP_CASES, ids=["upper", "fraction"])
    def test_det_and_invert_match_the_oracles(self, m):
        assert det(m) == leibniz_det(m.rows)
        assert invert(m) == cofactor_inverse(m)

    def test_skipping_on_a_zero_entry_alone_is_caught(self, monkeypatch):
        # invert's update is no longer divisible by prev, and the exact
        # division raises on it.
        plant_in_step(monkeypatch, "if keep and not f:", "if not f:")
        assert_wrong(ROW_SKIP_CASES)


def lower_unit(n, below, diagonal=1):
    """Lower triangular with diagonal (`diagonal`, 1, ..., 1) and the
    entries `below` {(i, j): p} (0-based, i > j)."""
    return LaurentMatrix([[diagonal if i == j == 0 else 1 if i == j
                           else below.get((i, j), 0) for j in range(n)] for i in range(n)])


def lu(diagonal):
    """L U with L lower unitriangular and U upper triangular with diagonal
    (`diagonal`, 1, 1, 1): every leading minor is `diagonal`, so each step
    after the first pivots on piv = prev = `diagonal`, and the pivot row and
    the rows below are nonzero right of the pivot column."""
    lower = lower_unit(4, {(1, 0): t(1), (2, 0): 1 - t(2), (2, 1): 2, (3, 1): t(-1), (3, 2): 3})
    upper = LaurentMatrix([[diagonal, t(1), 1, 2], [0, 1, -t(1), t(2)],
                           [0, 0, 1, 1 + t(1)], [0, 0, 0, 1]])
    return lower * upper


# b and c shapes: lower triangular, so each pivot row is zero right of the
# pivot while the rows below hold entries there; the first diagonal entry
# -t^2, t^-1 or t makes every later step pivot on piv = prev = +-t^s.
# Gauss-Jordan steps of invert also update the rows above, through the
# identity block.
EQUAL_PIVOT_CASES = [
    lower_unit(4, {(1, 0): t(1), (2, 0): t(2), (3, 0): 1 + t(3), (2, 1): t(1), (3, 2): 2},
               -t(2)),
    lower_unit(4, {(1, 0): t(1), (2, 0): t(2), (3, 0): t(3)}, t(-1)),
    lu(t(1)),
    lu(-t(2)),
]
EQUAL_PIVOT_IDS = ["b-shape", "c-shape", "lu-t", "lu-minus-t^2"]
# prev = 3 t: piv = prev, but the update must still divide by 3.
NON_UNIT_PREV = lu(t(1) * 3)


def step_pivots(monkeypatch, m, fn):
    """(prev, piv) of each Bareiss step of fn(m)."""
    pairs = []
    step = laurent._bareiss_step

    def traced(a, k, rows, prev, order):
        sign = step(a, k, rows, prev, order)
        pairs.append((LaurentPoly(prev), LaurentPoly(a[k][k])))
        return sign

    with monkeypatch.context() as patch:
        patch.setattr(laurent, "_bareiss_step", traced)
        fn(m)
    return pairs


class TestEqualPivotUpdate:
    """When a step's pivot equals the previous pivot and that is +-t^s, the
    Bareiss update (piv a_ij - a_ik a_kj) / prev is a_ij - a_ik a_kj / prev:
    a row changes only in the columns where the pivot row is nonzero, and
    every other entry keeps its dict.  Any other pivot (piv != prev, or a
    prev u t^s with u != +-1, or of two or more terms) takes the general
    update."""

    @pytest.mark.parametrize("m", EQUAL_PIVOT_CASES + [NON_UNIT_PREV],
                             ids=EQUAL_PIVOT_IDS + ["lu-3t"])
    def test_det_and_invert_match_the_oracles(self, monkeypatch, m):
        for fn in (det, invert):
            pairs = step_pivots(monkeypatch, m, fn)
            assert pairs[0][1] != pairs[0][0]
            assert [piv == prev for prev, piv in pairs[1:]] == [True] * 3
        assert det(m) == leibniz_det(m.rows)
        assert invert(m) == cofactor_inverse(m)

    @pytest.mark.parametrize("m", EQUAL_PIVOT_CASES + [NON_UNIT_PREV],
                             ids=EQUAL_PIVOT_IDS + ["lu-3t"])
    def test_det_and_invert_match_sympy(self, sympy, m):
        assert sympy.expand(matrix_to_sympy(sympy, m).det(method="berkowitz")
                            - to_sympy(sympy, det(m))) == 0
        want = matrix_to_sympy(sympy, m).inv(method="DM")
        assert all(sympy.cancel(x) == 0 for x in want - matrix_to_sympy(sympy, invert(m)))

    def test_entries_the_pivot_row_misses_keep_their_dicts(self):
        # Step 1 with piv = prev = -t^2: the pivot row is nonzero only in
        # column 3, so row 2 gets a new dict there, (-t^2 * 2 - t * t) / -t^2
        # = 3, and keeps its dict in column 2; row 3 is zero in the pivot
        # column and keeps every dict.  No dict is edited in place.
        a = [[{2: -1}, {}, {}, {}],
             [{}, {2: -1}, {}, {1: 1}],
             [{}, {1: 1}, {0: 5}, {0: 2}],
             [{}, {}, {3: 1}, {0: 1}]]
        before = [list(row) for row in a]
        laurent._bareiss_step(a, 1, range(2, 4), {2: -1}, list(range(4)))
        assert a[2][2] is before[2][2] and a[2][3] == {0: 3} and before[2][3] == {0: 2}
        assert all(x is y for x, y in zip(a[3], before[3]))

    def test_the_input_entries_stay_unchanged(self):
        # With s = 1 the Bareiss rows hold the entries' own term dicts, so
        # the update builds each changed entry on a copy; on lu(1) every
        # step, the first included, takes the equal-pivot update.
        for m in EQUAL_PIVOT_CASES[2:] + [lu(1)]:
            before = [[dict(p.terms) for p in row] for row in m.rows]
            det(m), invert(m)
            assert [[p.terms for p in row] for row in m.rows] == before

    def test_an_update_in_place_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, "d = dict(row[j])", "d = row[j]")
        m = lu(1)
        before = [[dict(p.terms) for p in row] for row in m.rows]
        det(m)
        assert [[p.terms for p in row] for row in m.rows] != before

    def test_the_shortcut_on_a_non_unit_prev_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, "if keep and u == 1 and not long:", "if keep and not long:")
        assert_wrong([NON_UNIT_PREV])

    def test_the_shortcut_on_an_unequal_pivot_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, "if keep and u == 1 and not long:", "if u == 1 and not long:")
        assert_wrong(EQUAL_PIVOT_CASES)

    def test_a_skipped_column_is_caught(self, monkeypatch):
        # Only the LU cases' pivot rows are nonzero right of the pivot.
        plant_in_step(monkeypatch, "enumerate(top[k + 1:], k + 1)", "enumerate(top[k + 2:], k + 2)")
        assert_wrong(EQUAL_PIVOT_CASES[2:])


# The entry at (1, 1) is dense and a monomial lies in another column, so the
# first step swaps columns; "row" swaps rows only, and "both" swaps rows and
# columns, an odd number of columns in all.
SPARSE_PIVOT_CASES = [
    LaurentMatrix([[1 + t(1), 1], [t(1), 0]]),
    LaurentMatrix([[1 + t(1), 1, t(-1)], [t(1) + t(2), 0, 1], [t(1), 1 + t(1), 0]]),
    LaurentMatrix([[(1 + t(1)).scale(Fraction(1, 2)), Fraction(1, 2), t(-1).scale(Fraction(1, 2))],
                   [(t(1) + t(2)).scale(Fraction(2, 3)), 0, Fraction(2, 3)],
                   [t(1).scale(Fraction(3, 4)), (1 + t(1)).scale(Fraction(3, 4)), 0]]),
    LaurentMatrix([[1 + t(1), 1 + t(2)], [t(1), 1]]),
    LaurentMatrix([[1 + t(1), 0, 1 - t(1)], [t(-1) + 2, 1 + t(2), t(1) * 2], [1, t(1), 3]]),
]
SPARSE_PIVOT_IDS = ["two", "three", "fraction", "row", "both"]
UNIT_PIVOT_CASES = SPARSE_PIVOT_CASES[:3]


def iwahori_conjugates(seed, per_size):
    """b1 * w * b2 at n = 6 and 8: dense Laurent entries, unit determinant."""
    rng = random.Random(seed)
    out = []
    for n in (6, 8):
        for _ in range(per_size):
            w = random_window(rng, n, 3)
            out.append(random_iwahori(rng, n) * w.to_matrix() * random_iwahori(rng, n))
    return out


def det_calls(monkeypatch, matrices, name):
    """Calls of laurent.<name> made by det over `matrices`."""
    calls = []
    fn = getattr(laurent, name)
    monkeypatch.setattr(laurent, name, lambda a, b: calls.append(1) or fn(a, b))
    for m in matrices:
        det(m)
    return len(calls)


class TestSparsestPivot:
    """Each Bareiss step pivots completely, on the fewest-term entry of the
    whole remaining block (the first monomial in row order, else the first
    entry of fewest terms), swapping its row and its column in.  The choice
    is free in fraction-free elimination, so the answers match the oracles;
    det takes the sign of both swaps and invert un-permutes the rows of its
    result.  What the choice buys is fewer divisions by long pivots."""

    @pytest.mark.parametrize("m", SPARSE_PIVOT_CASES, ids=SPARSE_PIVOT_IDS)
    def test_det_and_invert_match_the_oracles(self, m):
        assert det(m) == leibniz_det(m.rows)
        if m in UNIT_PIVOT_CASES:
            assert invert(m) == cofactor_inverse(m)

    @pytest.mark.parametrize("m", SPARSE_PIVOT_CASES, ids=SPARSE_PIVOT_IDS)
    def test_det_and_invert_match_sympy(self, sympy, m):
        assert sympy.expand(matrix_to_sympy(sympy, m).det(method="berkowitz")
                            - to_sympy(sympy, det(m))) == 0
        if m in UNIT_PIVOT_CASES:
            want = matrix_to_sympy(sympy, m).inv(method="DM")
            assert all(sympy.cancel(x) == 0 for x in want - matrix_to_sympy(sympy, invert(m)))

    def test_a_dropped_swap_sign_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, "(1 if r == k else -1) * ", "")
        for m in SPARSE_PIVOT_CASES[3:4]:
            assert det(m) == -leibniz_det(m.rows)

    def test_a_dropped_column_swap_sign_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, " * (1 if col == k else -1)", "")
        for m in SPARSE_PIVOT_CASES[::4]:
            assert det(m) == -leibniz_det(m.rows)

    def test_inverse_rows_left_permuted_are_caught(self):
        unpermuted = plant(laurent.invert, "zip(order, a)", "enumerate(a)")
        for m in UNIT_PIVOT_CASES:
            assert unpermuted(m) != cofactor_inverse(m)

    def test_divisions_by_long_pivots_are_pinned(self, monkeypatch):
        # poly_divmod runs the Bareiss divisions by a pivot with two or more
        # terms: 352 under the first-nonzero rule, 148 while each step
        # pivoted on the fewest-term entry of its column alone.
        assert det_calls(monkeypatch, iwahori_conjugates(22, 10), "poly_divmod") == 4

    def test_the_first_nonzero_rule_breaks_the_pin(self, monkeypatch):
        matrices = iwahori_conjugates(22, 10)
        dets = [det(m) for m in matrices]
        plant_in_step(monkeypatch, "if 0 < m < fewest:", "if m and r is None:")
        assert [det(m) for m in matrices] == dets
        assert det_calls(monkeypatch, matrices, "poly_divmod") > 4


def bareiss_divisors(monkeypatch, m):
    """The prev that each Bareiss step of det(m) divides by."""
    return [prev for prev, _ in step_pivots(monkeypatch, m, det)]


# Hand cases whose later steps divide by -t^2 (with a shift and a sign
# fold), by 3 t (a coefficient division, after a column swap), and by the
# two-term 1 - t^2 and -2 + 2 t, a block without a monomial.
FOLDED_DIVISION_CASES = [
    (LaurentMatrix([[-t(2), t(-1), t(1)], [0, t(1) * 3, 0], [2, t(1) * 3, t(-1)]]),
     [1, -t(2), t(3) * -3]),
    (LaurentMatrix([[1 + t(1), t(1) * 3, 0], [3, 0, 0], [1 - t(1), 0, 2]]),
     [1, t(1) * 3, t(1) * 9]),
    (LaurentMatrix([[1 - t(2), t(1) - 1, 1 - t(1) * 2],
                    [-1 - t(2), t(1) - 1, 1 - t(1) * 2],
                    [1 + t(2) * 2, 1 + t(1), -1 - t(1) * 2]]),
     [1, 1 - t(2), t(1) * 2 - 2]),
]
FOLDED_IDS = ["minus-t^k", "3t", "two-term"]


class TestFoldedDivision:
    """A Bareiss step divides by a monomial prev = u t^s inside the update:
    exponents move by -s, u = +-1 folds into the factors' signs and any
    other u divides each coefficient of the fresh update in place, raising
    on a remainder.  Only a prev of two or more terms calls
    laurent_exact_div."""

    @pytest.mark.parametrize("m, divisors", FOLDED_DIVISION_CASES, ids=FOLDED_IDS)
    def test_det_and_invert_match_the_oracles(self, monkeypatch, m, divisors):
        assert bareiss_divisors(monkeypatch, m) == divisors
        assert det(m) == leibniz_det(m.rows)
        assert invert(m) == cofactor_inverse(m)

    def test_a_dropped_shift_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, "((s, u),) = ((0, 1),) if long else prev.items()",
                      "((s, u),) = ((0, 1),) if long else prev.items(); s = 0")
        assert_wrong(m for m, _ in FOLDED_DIVISION_CASES[:2])

    def test_a_dropped_sign_fold_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, "sign, u = (u, 1) if u in (1, -1) else (1, u)",
                      "sign, u = (1, 1) if u in (1, -1) else (1, u)")
        assert_wrong(m for m, _ in FOLDED_DIVISION_CASES[:1])

    def test_a_dropped_coefficient_division_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, "d[e], c = divmod(c, u)", "c = 0")
        assert_wrong(m for m, _ in FOLDED_DIVISION_CASES[1:2])

    def test_a_dropped_exact_division_is_caught(self, monkeypatch):
        plant_in_step(monkeypatch, "d = q._terms", "pass")
        assert_wrong(m for m, _ in FOLDED_DIVISION_CASES[2:])

    def test_a_wrong_divisor_raises(self, monkeypatch):
        # Dividing by 2u in place of u: wherever a coefficient leaves a
        # remainder the step raises, so no floored quotient comes back; an
        # input whose updates 2u happens to divide exactly comes back wrong.
        matrices = [FOLDED_DIVISION_CASES[1][0], NON_UNIT_PREV] + iwahori_conjugates(22, 10)
        remainders = []

        def recorded(c, u):
            q, r = divmod(c, u)
            remainders.append(r)
            return q, r

        step = plant(laurent._bareiss_step, "divmod(c, u)", "divmod(c, 2 * u)")
        step.__globals__["divmod"] = recorded
        monkeypatch.setattr(laurent, "_bareiss_step", step)
        raised = 0
        for m in matrices:
            remainders.clear()
            try:
                d = det(m)
            except IdentityFailed:
                raised += 1
                assert remainders[-1]
            else:
                assert remainders and not any(remainders) and d != leibniz_det(m.rows)
        assert raised == 20

    def test_exact_divisions_are_pinned(self, monkeypatch):
        # laurent_exact_div runs only the divisions by a pivot with two or
        # more terms: 1,031 while every Bareiss division by a prev other
        # than 1 went through it, 173 while each step pivoted within its
        # column and det divided the row scales out through it.
        assert det_calls(monkeypatch, iwahori_conjugates(22, 10), "laurent_exact_div") == 5

    def test_coefficient_divisions_are_pinned(self, monkeypatch):
        # _quo runs det's last division by the row scales, not the updates:
        # 2,323 while each update by a prev u t^s with u != +-1 divided
        # through _shift_div.
        assert det_calls(monkeypatch, iwahori_conjugates(22, 10), "_quo") == 26

    def test_division_by_one_returns_the_dividend(self):
        p = t(-2).scale(Fraction(1, 3)) + 5
        assert laurent_exact_div(p, LaurentPoly.one()) is p


def entrywise_product(A, B):
    """The sum over k of A[i][k] * B[k][j], with LaurentPoly * and + alone;
    independent of the matrix product."""
    n = A.n
    return LaurentMatrix([[sum((A.rows[i][k] * B.rows[k][j] for k in range(n)), LaurentPoly.zero())
                           for j in range(n)] for i in range(n)])


def assert_product_matches(A, B, p):
    assert A * B == entrywise_product(A, B)
    assert A * p == LaurentMatrix([[e * p for e in row] for row in A.rows])


@st.composite
def sparse_matrices(draw, n):
    """Mostly zero n x n matrices of Laurent entries with Fraction
    coefficients, some rows and columns forced to zero."""
    zero_rows = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    return LaurentMatrix([
        [LaurentPoly.zero() if i in zero_rows or j in zero_cols
         else draw(st.one_of(st.just(LaurentPoly.zero()), fraction_polys)) for j in range(n)]
        for i in range(n)])


product_cases = st.integers(0, 8).flatmap(
    lambda n: st.tuples(sparse_matrices(n), sparse_matrices(n), fraction_polys))


class TestProductOracle:
    """A * B against the entrywise sum, and A * p against e * p per entry."""

    @given(product_cases)
    @settings(max_examples=60, deadline=None)
    def test_matches_entrywise_sum(self, case):
        assert_product_matches(*case)

    def test_a_dropped_last_nonzero_is_caught(self, monkeypatch):
        A = LaurentMatrix([[1, t(-1), 0], [0, 0, 0], [Fraction(1, 2), 0, t(2)]])
        B = LaurentMatrix([[t(1), 0, Fraction(-2, 3)], [0, 0, 0], [3, t(-2) + 1, 0]])
        assert_product_matches(A, B, t(1))
        planted = plant(LaurentMatrix.__mul__, "for j, y in brow:", "for j, y in brow[:-1]:")
        monkeypatch.setattr(LaurentMatrix, "__mul__", planted)
        assert A * B != entrywise_product(A, B)


def permutation_matrix(perm, exps):
    """The monomial matrix with t^exps[j] in row perm[j], column j (0-based)."""
    return LaurentMatrix.from_entries(len(perm), {(i + 1, j + 1): t(e)
                                                  for j, (i, e) in enumerate(zip(perm, exps))})


def upper_nilpotent(n):
    """Strictly upper triangular with a Laurent or Fraction entry above the
    diagonal everywhere: Z^(n-1) != 0 = Z^n."""
    return LaurentMatrix([[t(j - i) + Fraction(1, i + 1) if j > i else 0 for j in range(n)]
                          for i in range(n)])


class TestSparseOutputProduct:
    """The product builds only the output entries some term reaches; the
    rest share one zero.  Against the entrywise sum on products with many
    structural zeros, and no product's entries change afterwards."""

    def test_permutation_matrices(self):
        for n in range(1, 5):
            for p in permutations(range(n)):
                A = permutation_matrix(p, [i - 1 for i in range(n)])
                for q in permutations(range(n)):
                    B = permutation_matrix(q, [1 - i for i in range(n)])
                    P = A * B
                    assert P == entrywise_product(A, B)
                    assert [sum(1 for e in row if e) for row in P.rows] == [1] * n

    def test_powers_of_a_nilpotent(self):
        for n in range(1, 8):
            Z = upper_nilpotent(n)
            power = LaurentMatrix.identity(n)
            for _ in range(n):
                assert power * Z == entrywise_product(power, Z)
                power = power * Z
            assert power == LaurentMatrix.zero(n)

    def test_zero_row_and_column(self):
        A = LaurentMatrix([[1, t(-1), 2], [0, 0, 0], [Fraction(1, 2), t(1) + 1, t(2)]])
        B = LaurentMatrix([[t(1), 0, Fraction(-2, 3)], [1, 0, t(-2)], [3, 0, 0]])
        for X, Y in [(A, B), (B, A), (A, A), (B, B)]:
            assert X * Y == entrywise_product(X, Y)
        assert not any((A * B).rows[1])
        assert not any(row[1] for row in (A * B).rows)

    def test_later_arithmetic_leaves_products_unchanged(self):
        A, B = upper_nilpotent(5), permutation_matrix((2, 0, 4, 1, 3), (0, 1, -1, 2, 0))
        made = []  # (product, the term dicts of its entries when it was made)

        def snapshot(P):
            made.append((P, [[dict(e._terms) for e in row] for row in P.rows]))
            return P

        first = [snapshot(X * Y) for X, Y in [(A, B), (B, A), (A, A), (B, B)]]
        for P in first:
            for Q in first:
                R = snapshot(P * Q)
                snapshot((P + R - snapshot(R * t(-1))) * Q)
        invert(LaurentMatrix.identity(5) + A)
        det(first[0] * first[1] + LaurentMatrix.identity(5))
        for P, snap in made:
            assert [[e._terms for e in row] for row in P.rows] == snap


class TestOperandTypes:
    """A non-matrix operand is a TypeError, as for LaurentPoly; a matrix of
    another size is a ValueError."""

    @pytest.mark.parametrize("apply", [
        lambda m: m * 0.5, lambda m: m * "a", lambda m: 0.5 * m, lambda m: "a" * m,
    ], ids=["m*float", "m*str", "float*m", "str*m"])
    def test_inexact_scalar_is_type_error(self, apply):
        with pytest.raises(TypeError, match="not an exact scalar"):
            apply(LaurentMatrix.identity(2))

    @pytest.mark.parametrize("apply", [
        lambda m: m + 1, lambda m: m - 1, lambda m: 1 + m, lambda m: 1 - m, lambda m: m + t(1),
    ], ids=["m+int", "m-int", "int+m", "int-m", "m+poly"])
    def test_non_matrix_sum_is_type_error(self, apply):
        with pytest.raises(TypeError):
            apply(LaurentMatrix.identity(2))

    @pytest.mark.parametrize("apply", [operator.add, operator.sub, operator.mul])
    def test_size_mismatch_is_value_error(self, apply):
        with pytest.raises(ValueError, match="matrix size mismatch"):
            apply(LaurentMatrix.identity(2), LaurentMatrix.identity(3))

    def test_exact_scalars_on_either_side(self):
        m = LaurentMatrix.identity(2)
        assert 2 * m == m * 2 == m + m
        assert Fraction(1, 2) * m == m * Fraction(1, 2) == LaurentMatrix.diagonal([Fraction(1, 2)] * 2)


class TestPolyOperandTypes:
    """LaurentPoly arithmetic declines a matrix operand, so the matrix's
    reflected method answers: a product with a polynomial works from either
    side, and a sum or difference stays a TypeError."""

    def test_poly_times_matrix_is_matrix_times_poly(self):
        m = LaurentMatrix([[1, t(-1)], [Fraction(1, 2), 0]])
        assert t(1) * m == m * t(1) == LaurentMatrix([[t(1), 1], [t(1).scale(Fraction(1, 2)), 0]])

    @pytest.mark.parametrize("apply", [
        lambda m: t(1) + m, lambda m: t(1) - m, lambda m: m - t(1),
    ], ids=["poly+m", "poly-m", "m-poly"])
    def test_poly_sum_with_matrix_is_type_error(self, apply):
        with pytest.raises(TypeError, match="unsupported operand"):
            apply(LaurentMatrix.identity(2))


def entrywise(op, M, N):
    """op applied to each pair of entries, with LaurentPoly arithmetic alone."""
    return LaurentMatrix([[op(p, q) for p, q in zip(*rows)] for rows in zip(M.rows, N.rows)])


def assert_elementwise_matches(M, N, p):
    assert M + N == entrywise(operator.add, M, N)
    assert M - N == entrywise(operator.sub, M, N)
    assert M * p == LaurentMatrix([[e * p for e in row] for row in M.rows])


@st.composite
def elementwise_cases(draw):
    """Two n x n matrices with at most 2n nonzero entries each, so most
    entries are zero on one side or both, and a scalar that may be zero."""
    n = draw(st.integers(0, 8))
    cells = st.tuples(st.integers(1, n), st.integers(1, n)) if n else st.nothing()
    sparse = st.dictionaries(cells, fraction_polys, max_size=2 * n)
    M, N = (LaurentMatrix.from_entries(n, draw(sparse)) for _ in range(2))
    return M, N, draw(st.one_of(st.just(LaurentPoly.zero()), fraction_polys))


class TestElementwiseOracle:
    """M + N, M - N and M * p skip zero entries; entry by entry they agree
    with LaurentPoly +, - and *."""

    @given(elementwise_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_entrywise_arithmetic(self, case):
        assert_elementwise_matches(*case)

    def test_a_dropped_negation_is_caught(self, monkeypatch):
        M = LaurentMatrix([[0, t(-1), 0], [Fraction(1, 2), 0, 0], [0, 0, t(2)]])
        N = LaurentMatrix([[t(1), 0, 0], [3, 0, Fraction(-2, 3)], [0, 0, t(2) + 1]])
        assert_elementwise_matches(M, N, t(1))
        planted = plant(LaurentMatrix.__sub__, "else -q", "else q")
        monkeypatch.setattr(LaurentMatrix, "__sub__", planted)
        assert M - N != entrywise(operator.sub, M, N)


def assert_integral_scaling(polys, integral=laurent._integral):
    """`_integral` against LaurentPoly arithmetic: the scaled term dicts are
    those of polys times s, in ints, for s the lcm of the denominators; with
    s = 1 they are the polynomials' own dicts, so scaling the scaled
    polynomials again hands back their dicts."""
    scaled, s = integral(polys)
    assert s == math.lcm(*(Fraction(c).denominator for p in polys for c in p.terms.values()))
    assert scaled == [(p * s).terms for p in polys]
    assert all(type(c) is int for d in scaled for c in d.values())
    wrapped = [LaurentPoly(d) for d in scaled]
    again, one = integral(wrapped)
    assert one == 1 and all(d is p._terms for d, p in zip(again, wrapped, strict=True))


class TestIntegralScaling:
    @given(st.lists(st.one_of(fraction_polys, st.just(LaurentPoly.zero())), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_poly_arithmetic(self, polys):
        assert_integral_scaling(polys)

    @given(unit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_det_and_invert_leave_the_entries_unchanged(self, m):
        # Integral rows are eliminated on the entries' own term dicts.
        before = [[p.terms for p in row] for row in m.rows]
        det(m)
        invert(m)
        assert [[p.terms for p in row] for row in m.rows] == before

    def test_a_numerator_times_s_is_caught(self):
        # Each Fraction c must scale by s // c.denominator: times s alone
        # is off by its denominator.
        planted = plant(laurent._integral, "else c.numerator * (s // c.denominator)",
                        "else c.numerator * s")
        polys = [LaurentPoly({0: Fraction(1, 2), 1: Fraction(2, 3)}), LaurentPoly.zero(), t(-1) * 5]
        assert_integral_scaling(polys)
        with pytest.raises(AssertionError):
            assert_integral_scaling(polys, planted)


class TestCoefficientType:
    @given(laurent_polys, laurent_polys, st.fractions(min_value=-3, max_value=3), st.integers(-3, 3))
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_stores_exact_coefficients(self, p, q, c, k):
        assert_exact(coefficients(p, q, p + q, p - q, p * q, -p, p.scale(c), p.shift(k)))
        assert_exact(coefficients(p + 1, 1 - p, p * 2, p.scale(Fraction(4, 2))))

    @given(fraction_matrices)
    @settings(max_examples=40, deadline=None)
    def test_det_stores_exact_coefficients(self, m):
        assert_exact(coefficients(det(m)))

    @given(unit_matrices())
    @settings(max_examples=30, deadline=None)
    def test_invert_stores_exact_coefficients(self, m):
        assert_exact(coefficients(*entries(invert(m))))

    @given(integer_unimodular())
    @settings(max_examples=40, deadline=None)
    def test_integer_unimodular_stays_integer(self, m):
        inv = invert(m)
        assert all(type(c) is int for c in coefficients(det(m), *entries(inv)))
        assert m * inv == LaurentMatrix.identity(m.n)

    def test_inputs_are_normalized(self):
        p = LaurentPoly({0: True, 1: Fraction(6, 3), 2: Fraction(1, 2)})
        assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
        assert type(LaurentPoly.constant(Fraction(-4, 2)).coeff(0)) is int
        assert type(LaurentPoly.one().coeff(5)) is int
        with pytest.raises(TypeError):
            LaurentPoly({0: 1.0})
        with pytest.raises(TypeError):
            LaurentPoly.one().scale(0.5)

    @pytest.mark.parametrize("make", [
        lambda: LaurentPoly({1.5: 1}),
        lambda: LaurentPoly.monomial(1.5, 2),
        lambda: LaurentPoly.t(1.5),
        lambda: LaurentPoly.one().shift(0.5),
    ], ids=["init", "monomial", "t", "shift"])
    def test_non_integer_exponent_is_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    def test_quotients_are_int_when_integral(self):
        six, two, three = (LaurentPoly.constant(c) for c in (6, 2, 3))
        assert type(laurent_exact_div(six, two).coeff(0)) is int
        assert laurent_exact_div(three, two).coeff(0) == Fraction(3, 2)
        q, r = poly_divmod(t(2) * 3 + 1, t(1) * 2)
        assert q.terms == {1: Fraction(3, 2)} and r.terms == {0: 1}
        assert type(r.coeff(0)) is int


class TestBorel:
    def test_identity_in_both(self):
        # The identity lies in the standard Iwahori and in its opposite; only
        # membership in the standard one is tested.
        assert borel_membership(LaurentMatrix.identity(2)) is True

    def test_lower_t_multiple_in_plus(self):
        m = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.zero()], [t(1), LaurentPoly.one()]])
        assert borel_membership(m) is True

    def test_constant_below_diagonal_in_neither(self):
        m = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.zero()], [LaurentPoly.one(), LaurentPoly.one()]])
        assert borel_membership(m) is False

    def test_nonconstant_determinant_rejected(self):
        m = LaurentMatrix.diagonal([t(1) + 1, LaurentPoly.one()])
        assert borel_membership(m) is False

    @pytest.mark.parametrize("m, member, dets", [
        (LaurentMatrix([[1, t(-1)], [0, 1]]), False, 0),             # a t^-1 entry
        (LaurentMatrix([[1, 0], [2 + t(1), 1]]), False, 0),          # t^0 below the diagonal
        (LaurentMatrix.diagonal([t(1) + 1, LaurentPoly.one()]), False, 1),
        (LaurentMatrix([[1, 2 + t(1)], [t(1), (1 + t(1)) * (1 + t(1))]]), True, 1),
    ], ids=["t^-1", "t^0-below", "det-1+t", "member"])
    def test_the_entries_are_checked_before_det(self, monkeypatch, m, member, dets):
        calls = []
        monkeypatch.setattr(laurent, "det", lambda m: calls.append(m) or det(m))
        assert borel_membership(m) is member
        assert len(calls) == dets
