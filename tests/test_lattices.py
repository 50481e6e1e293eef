import pytest

from affcells.errors import FlagInvariantError, NotContained
from affcells.lattices import AffineFlag, Lattice, quotient_dim, vdim
from affcells.laurent import LaurentMatrix, LaurentPoly
from affcells.partitions import Composition

t = LaurentPoly.t


class TestCanonicalForm:
    def test_equality_is_representation_independent(self):
        # two bases of the same module
        b1 = LaurentMatrix([[LaurentPoly.one(), t(-1)], [LaurentPoly.zero(), LaurentPoly.one()]])
        b2 = LaurentMatrix([[t(-1), LaurentPoly.one() + t(-1)],
                            [LaurentPoly.one(), LaurentPoly.one()]])
        assert Lattice.from_basis(b1) == Lattice.from_basis(b2)

    def test_distinct_lattices_differ(self):
        assert Lattice.standard(2) != Lattice.standard(2).scaled(1)

    def test_scaling_shifts(self):
        L = Lattice.standard(3)
        assert L.scaled(2).scaled(-2) == L

    def test_rejects_non_lattice_span(self):
        m = LaurentMatrix.diagonal([t(0) + t(1), LaurentPoly.one()])
        with pytest.raises(ValueError):
            Lattice.from_basis(m)

    def test_more_generators_than_rank(self):
        # {1, 1 + t^-1} spans t^-1 k[t] over k[t]: their difference is t^-1.
        one = LaurentPoly.one()
        assert Lattice.from_columns([[one], [one + t(-1)]], 1) == Lattice.standard(1).scaled(-1)

    def test_three_generators_at_rank_two(self):
        # e_1, e_2 and t^-1 (e_1 + e_2) span the lattice with basis
        # t^-1 (e_1 + e_2), e_2.
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        cols = [[one, zero], [zero, one], [t(-1), t(-1)]]
        want = LaurentMatrix([[t(-1), zero], [t(-1), one]])
        assert Lattice.from_columns(cols, 2) == Lattice.from_basis(want)

    def test_membership(self):
        L = Lattice.from_basis(
            LaurentMatrix([[LaurentPoly.one(), t(-1)], [LaurentPoly.zero(), LaurentPoly.one()]])
        )
        assert L.contains([t(-1), LaurentPoly.one()])
        assert L.contains([LaurentPoly.one(), LaurentPoly.zero()])
        assert not L.contains([t(-2), LaurentPoly.zero()])


class TestVdim:
    def test_standard(self):
        assert vdim(Lattice.standard(4)) == 0

    def test_scaled(self):
        assert vdim(Lattice.standard(4).scaled(1)) == -4

    def test_unipotent_image(self):
        z = LaurentMatrix.from_entries(2, {(1, 2): LaurentPoly.one()})
        point = LaurentMatrix.identity(2) - z.scale_t(-1)
        assert vdim(Lattice.from_basis(point)) == 0


class TestQuotientDim:
    def test_full_step(self):
        E = Lattice.standard(3)
        assert quotient_dim(E, E.scaled(1)) == 3

    def test_equal(self):
        E = Lattice.standard(3)
        assert quotient_dim(E, E) == 0

    def test_not_contained(self):
        E = Lattice.standard(2)
        with pytest.raises(NotContained):
            quotient_dim(E.scaled(1), E)


class TestAffineFlag:
    def test_standard_flag_validates(self):
        lam = Composition((2, 1))
        lattices = []
        for i in range(lam.r + 1):
            d = lam.d[i]
            diag = [t(-1) if j < d else LaurentPoly.one() for j in range(3)]
            lattices.append(Lattice.from_basis(LaurentMatrix.diagonal(diag)))
        AffineFlag(lattices=tuple(lattices), shape=lam).validate()

    def test_bad_shape_rejected(self):
        lam = Composition((2, 1))
        E = Lattice.standard(3)
        flag = AffineFlag(lattices=(E, E, E.scaled(-1)), shape=lam)
        with pytest.raises(FlagInvariantError):
            flag.validate()
