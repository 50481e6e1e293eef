import itertools
import random
from fractions import Fraction

import pytest

from affcells import affine
from affcells.affine import AffinePermutation, Root, Side
from affcells.cells import deformation
from affcells.constructions import (
    _c_matrix,
    broken_corner_witness,
    check_kappa,
    conormal_directions,
    decompose_varpi,
    dim_g_mod_p,
    divisor_data,
    divisor_witnesses,
    finite_subset,
    kappa_bundle,
    lift_finite,
    longest_min_rep,
    parabolic_subset,
    richardson_element,
    varpi_witness,
)
from affcells.errors import BadDivisorIndex
from affcells.laurent import (
    LaurentMatrix,
    LaurentPoly,
    borel_membership,
    det,
)
from affcells.partitions import Composition, compositions_of, jordan_type
from affcells.tableau import build


class TestKappa:
    def test_two_singletons(self):
        b = kappa_bundle(Composition((1, 1)))
        assert b.kappa == AffinePermutation((-1, 4))
        assert b.kappa.to_matrix() == LaurentMatrix.diagonal(
            [LaurentPoly.t(1), LaurentPoly.t(-1)]
        )

    def test_two_one(self):
        b = kappa_bundle(Composition((2, 1)))
        assert b.kappa == AffinePermutation((-2, 2, 6))
        assert b.kappa.length() == 4

    def test_worked_example_length(self):
        b = kappa_bundle(Composition((1, 4, 4, 2, 6)))
        assert b.kappa.length() == 272

    def test_translation_part(self):
        for lam in (Composition((1, 1)), Composition((2, 1)), Composition((1, 2, 1))):
            b = kappa_bundle(lam)
            assert affine.min_coset_rep(b.kappa, finite_subset(lam.n), Side.RIGHT) == b.tau_q
            assert b.tau_q * b.sigma == b.kappa
            assert b.tau_q.length() == 2 * dim_g_mod_p(lam)


def from_paper(n, orders):
    """from_matrix of the paper's monomial matrix, t^c at each (row, column)
    of the {(row, column): c} map: the reference for the windows that the
    constructions build directly."""
    return affine.from_matrix(LaurentMatrix.from_entries(
        n, {key: LaurentPoly.t(c) for key, c in orders.items()}))


class TestPaperMatrices:
    def test_kappa_sigma_w_g_w_p(self):
        for n in range(1, 9):
            for lam in compositions_of(n):
                bundle = kappa_bundle(lam)
                tab, s = bundle.tableau, bundle.tableau.s
                nu = tab.nu
                kappa = {(i, tab.l[i - 1]): nu.part(i) - 1 for i in range(1, s + 1)}
                kappa |= {(i + s, j): -1 for i, j in enumerate(tab.m, start=1)}
                w_g = {(tab.f[(i, nu.part(i))], i): 0 for i in range(1, s + 1)}
                w_g |= {(tab.iota[j], i + s): 0 for i, j in enumerate(tab.tmap, start=1)}
                w_p = {(tab.l[i - 1], tab.f[(i, 1)]): 0 for i in range(1, s + 1)}
                w_p |= {(j, i): 0 for i, j in zip(tab.tmap, tab.m)}
                assert bundle.kappa == from_paper(n, kappa), lam.parts
                assert bundle.sigma == from_paper(n, dict.fromkeys(kappa, 0)), lam.parts
                assert decompose_varpi(bundle) == (from_paper(n, w_g), from_paper(n, w_p))

    def test_v_k(self):
        # the antidiagonal matrix with t^-1 in row k and t in row k + 1
        for n in range(2, 8):
            for lam in compositions_of(n):
                for i in range(1, lam.r):
                    data = divisor_data(lam, i)
                    v_k = {(r, n + 1 - r): (r == data.k + 1) - (r == data.k)
                           for r in range(1, n + 1)}
                    assert data.v_k == from_paper(n, v_k), (lam.parts, i)


class TestRichardson:
    def test_small(self):
        assert richardson_element(Composition((1, 1))) == LaurentMatrix.from_entries(
            2, {(1, 2): LaurentPoly.one()}
        )
        assert richardson_element(Composition((2, 1))) == LaurentMatrix.from_entries(
            3, {(1, 3): LaurentPoly.one()}
        )
        assert richardson_element(Composition((4,))) == LaurentMatrix.zero(4)

    def test_jordan_type_is_column_partition(self):
        for n in range(1, 9):
            for lam in compositions_of(n):
                assert jordan_type(richardson_element(lam)) == lam.column_partition()

    def test_determinant_of_deformation(self):
        for n in range(1, 8):
            for lam in compositions_of(n):
                z = richardson_element(lam)
                point = LaurentMatrix.identity(n) - z * LaurentPoly.t(-1)
                assert det(point) == LaurentPoly.one()


class TestVarpiWitness:
    def test_two_singletons(self):
        wit = varpi_witness(Composition((1, 1)))
        expected_b = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.zero()],
                                    [LaurentPoly.t(1), LaurentPoly.one()]])
        assert wit.b == expected_b
        assert wit.c == expected_b
        assert wit.lift == LaurentMatrix.from_entries(
            2, {(2, 1): LaurentPoly.t(1), (1, 2): -LaurentPoly.t(-1)}
        )
        assert wit.varpi == AffinePermutation((0, 3))

    def test_two_one(self):
        wit = varpi_witness(Composition((2, 1)))
        assert wit.lift == LaurentMatrix.from_entries(3, {
            (3, 1): LaurentPoly.t(1),
            (1, 3): -LaurentPoly.t(-1),
            (2, 2): LaurentPoly.one(),
        })
        assert wit.c == LaurentMatrix.from_entries(3, {
            (1, 1): LaurentPoly.one(), (2, 2): LaurentPoly.one(),
            (3, 3): LaurentPoly.one(), (3, 1): LaurentPoly.t(1),
        })

    def test_single_row_trivial(self):
        wit = varpi_witness(Composition((4,)))
        assert wit.b == LaurentMatrix.identity(4)
        assert wit.c == LaurentMatrix.identity(4)
        assert wit.varpi == affine.identity(4)

    def test_identity_sweep(self):
        for n in range(1, 8):
            for lam in compositions_of(n):
                wit = varpi_witness(lam)
                assert borel_membership(wit.b)
                assert borel_membership(wit.c)

    def test_printed_corner_variant_fails(self):
        # regression guard: the off-by-one corner column destroys the identity
        assert not broken_corner_witness(varpi_witness(Composition((1, 1))))
        assert not broken_corner_witness(varpi_witness(Composition((2, 2))))
        for n in range(2, 7):
            for lam in compositions_of(n):
                if lam.column_partition().part(1) >= 2:
                    assert not broken_corner_witness(varpi_witness(lam))

    def test_witness_carries_its_tableau_and_z(self):
        for n in range(1, 6):
            for lam in compositions_of(n):
                wit = varpi_witness(lam)
                assert wit.tableau == build(lam)
                assert wit.z == richardson_element(lam)

    def test_witness_carries_the_product_it_was_checked_through(self):
        # bz = b (1 - t^-1 Z), formed once; broken_corner_witness reuses it.
        for n in range(1, 8):
            for lam in compositions_of(n):
                wit = varpi_witness(lam)
                assert wit.bz == wit.b * deformation(wit.z)
                assert wit.bz * wit.c == wit.lift

    def test_broken_corner_sums_onto_the_diagonal(self):
        # The off-by-one corner of a height-two column lands on the diagonal,
        # where its t is summed with the 1 already there.
        tab = varpi_witness(Composition((1, 1))).tableau
        assert _c_matrix(tab, corner_row_offset=1) == LaurentMatrix.diagonal(
            [LaurentPoly.one() + LaurentPoly.t(1), LaurentPoly.one()])


class TestDecomposeVarpi:
    def test_two_singletons(self):
        w_g, w_p = decompose_varpi(kappa_bundle(Composition((1, 1))))
        assert w_g == affine.simple_reflection(2, 1)
        assert w_p == affine.identity(2)

    def test_single_row(self):
        w_g, w_p = decompose_varpi(kappa_bundle(Composition((5,))))
        assert w_g == affine.identity(5)
        assert w_p == affine.identity(5)

    def test_product_identity_sweep(self):
        for n in range(1, 8):
            for lam in compositions_of(n):
                bundle = kappa_bundle(lam)
                w_g, w_p = decompose_varpi(bundle)  # raises on failure
                assert w_g.is_finite()
                assert w_g * bundle.kappa * w_p == varpi_witness(lam).varpi


class TestCheckKappa:
    def test_examples(self):
        rep = check_kappa(kappa_bundle(Composition((1, 1))))
        assert (rep.length, rep.length_formula) == (2, 2)
        assert rep.is_compactification

        rep = check_kappa(kappa_bundle(Composition((1, 1, 1))))
        assert (rep.length, rep.length_formula) == (7, 7)
        assert not rep.is_compactification

        rep = check_kappa(kappa_bundle(Composition((2, 1))))
        assert (rep.length, rep.length_formula) == (4, 4)
        assert rep.is_compactification

    def test_sweep(self):
        for n in range(1, 8):
            for lam in compositions_of(n):
                rep = check_kappa(kappa_bundle(lam))
                assert rep.in_min_reps and rep.left_stable and rep.lengths_match
                if lam.r >= 2:
                    assert rep.is_compactification == (lam.r == 2)


class TestConormal:
    def test_identity_gives_full_nilradical(self):
        lam = Composition((2, 1))
        roots = conormal_directions(affine.identity(3), parabolic_subset(lam))
        assert len(roots) == dim_g_mod_p(lam)

    def test_longest_rep_gives_empty(self):
        lam = Composition((1, 1))
        assert conormal_directions(longest_min_rep(lam), parabolic_subset(lam)) == frozenset()

    def test_divisor_direction(self):
        lam = Composition((2, 1))
        w = affine.simple_reflection(3, 1) * longest_min_rep(lam)
        assert conormal_directions(w, parabolic_subset(lam)) == frozenset({Root(1, 3, 3)})


class TestDivisor:
    def test_two_singletons(self):
        data = divisor_data(Composition((1, 1)), 1)
        assert data.k == 1
        assert data.w == affine.identity(2)
        assert data.gamma == Root(1, 2, 2)
        assert data.v_k == AffinePermutation((0, 3))
        assert data.v_k_min == data.v_k
        assert data.v_k_min.length() == 1 == dim_g_mod_p(Composition((1, 1)))

    def test_two_one(self):
        data = divisor_data(Composition((2, 1)), 1)
        assert data.gamma == Root(1, 3, 3)
        assert data.v_k_min == AffinePermutation((-1, 3, 4))
        assert data.v_k_min.length() == 2 == dim_g_mod_p(Composition((2, 1)))

    def test_below_kappa_sweep(self):
        for n in range(2, 7):
            for lam in compositions_of(n):
                if lam.r < 2:
                    continue
                kappa = kappa_bundle(lam).kappa
                for i in range(1, lam.r):
                    data = divisor_data(lam, i)
                    assert affine.bruhat_leq(data.v_k_min, kappa)

    def test_bad_index(self):
        with pytest.raises(BadDivisorIndex):
            divisor_data(Composition((2, 1)), 2)
        with pytest.raises(BadDivisorIndex):
            divisor_data(Composition((3,)), 1)

    def test_witness_reduction(self):
        rng = random.Random(17)
        for lam in (Composition((1, 1)), Composition((2, 1)), Composition((1, 2, 1))):
            for i in range(1, lam.r):
                data = divisor_data(lam, i)
                for _ in range(3):
                    a = Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2]))
                    wit = divisor_witnesses(data, a)
                    assert borel_membership(wit.b1)
                    assert borel_membership(wit.b2)
                    assert borel_membership(wit.b3)
                    assert affine.from_matrix(wit.reduced) == data.v_k_min

    def test_witness_scale_must_be_exact(self):
        data = divisor_data(Composition((2, 1)), 1)
        with pytest.raises(TypeError):
            divisor_witnesses(data, 0.1)
        with pytest.raises(ValueError):
            divisor_witnesses(data, 0)

    def test_lift_signed_in_the_first_column_of_the_block(self):
        for n in range(2, 7):
            for lam in compositions_of(n):
                d = lam.d
                for i in range(1, lam.r):
                    data = divisor_data(lam, i)
                    off_sign = [
                        (r, c) for r in range(1, n + 1) for c in range(1, n + 1)
                        if data.lift.entry(r, c) == -LaurentPoly.one()
                    ]
                    assert off_sign in ([], [(n - d[i], d[i - 1] + 1)])


class TestLift:
    def test_determinant_one(self):
        # every finite w with n <= 5 and every column: det 1, the lift maps
        # back to w, and only the entry in the given column may be negated
        for n in range(1, 6):
            for window in itertools.permutations(range(1, n + 1)):
                w = AffinePermutation(window)
                for column in range(1, n + 1):
                    m = lift_finite(w, column)
                    assert det(m) == LaurentPoly.one(), (window, column)
                    assert affine.from_matrix(m) == w
                    signed = [j for j in range(1, n + 1) if m.entry(w(j), j) != LaurentPoly.one()]
                    assert signed in ([], [column])

    def test_sign_goes_in_the_given_column(self):
        odd = AffinePermutation((2, 1, 3))
        for column in (1, 2, 3):
            m = lift_finite(odd, column)
            assert det(m) == LaurentPoly.one()
            assert affine.from_matrix(m) == odd
            assert m.entry(odd(column), column) == -LaurentPoly.one()
        even = AffinePermutation((2, 3, 1))
        assert lift_finite(even, 2) == even.to_matrix()
