import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affcells import affine, cells, lattices
from affcells.affine import AffinePermutation
from affcells.cells import (
    beta,
    iwahori_cell,
    mv_flag,
    parabolic_cell,
    phi_map,
    psi_map,
)
from affcells.constructions import (
    divisor_data,
    finite_subset,
    kappa_bundle,
    parabolic_subset,
    richardson_element,
    unit,
)
from affcells.errors import (
    AffcellsError,
    NotInNilradical,
    NotMaximalParabolic,
    NotNilpotent,
    NotUnimodular,
    SizeMismatch,
)
from affcells.lattices import Lattice, quotient_dim
from affcells.laurent import LaurentMatrix, LaurentPoly, invert
from affcells.partitions import Composition, Partition, compositions_of, partitions_of
from affcells.sampling import (
    jordan_matrix,
    random_conjugate_frame,
    random_finite_borel,
    random_iwahori,
    random_nilradical,
    random_parabolic,
    random_sl,
    random_window,
)
from planting import plant

t = LaurentPoly.t


def richardson_point(lam):
    z = richardson_element(lam)
    return LaurentMatrix.identity(lam.n) - z * t(-1)


# Every fraction in [-3, 3] with denominator at most 4, drawn uniformly:
# drawing them with st.fractions costs more than the test itself.
QUARTERS = sorted({Fraction(p, q) for q in range(1, 5) for p in range(-3 * q, 3 * q + 1)})

laurent_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.dictionaries(
                st.integers(-3, 3),
                st.one_of(st.just(1), st.sampled_from(QUARTERS)),
                max_size=3,
            ).map(LaurentPoly),
            min_size=n, max_size=n,
        ),
        min_size=n, max_size=n,
    )
).map(LaurentMatrix)


class TestDeformation:
    """deformation builds 1 - t^-1 X entry by entry; matrix arithmetic is
    the independent reference."""

    @given(laurent_matrices)
    @settings(max_examples=200, deadline=None)
    def test_matches_matrix_arithmetic(self, x):
        assert cells.deformation(x) == LaurentMatrix.identity(x.n) - x * t(-1)

    def test_cancelling_diagonal(self):
        # 1 - t^-1 (t 1) = 0: the cancelled constant leaves zero entries.
        assert cells.deformation(LaurentMatrix.diagonal([t(1)] * 3)) == LaurentMatrix.zero(3)

    def test_zero_entries_and_no_aliasing(self):
        # Zero entries of X, on and off the diagonal, pass into the point
        # without _addmul; products formed later edit neither X nor the point.
        x = LaurentMatrix.from_entries(3, {(1, 2): LaurentPoly.one(), (2, 3): t(1) + 2,
                                           (3, 3): Fraction(1, 2)})
        point = cells.deformation(x)
        assert point == LaurentMatrix.identity(3) - x * t(-1)
        assert point.rows[0][0] == LaurentPoly.one() and point.rows[1][0] is x.rows[1][0]

        def snapshot(m):
            return [[dict(p._terms) for p in row] for row in m.rows]

        before = snapshot(x), snapshot(point)
        for m in (point * point, point * x, x * point, point * t(-1), point + point):
            assert (snapshot(x), snapshot(point)) == before
            assert m != point


class TestIwahoriCell:
    def test_monomial_matrices_locate_themselves(self):
        rng = random.Random(23)
        for _ in range(30):
            w = random_window(rng, rng.randint(1, 5))
            assert iwahori_cell(w.to_matrix()) == w

    def test_dense_nilpotent_small(self):
        assert iwahori_cell(richardson_point(Composition((1, 1)))) == AffinePermutation((0, 3))

    def test_invariance_under_iwahori_factors(self):
        rng = random.Random(29)
        for n in (2, 3, 4, 5):
            w = random_window(rng, n, spread=2)
            m = w.to_matrix()
            base = iwahori_cell(m)
            for _ in range(20):
                b1 = random_iwahori(rng, n)
                b2 = random_iwahori(rng, n)
                assert iwahori_cell(b1 * m * b2) == base

    def test_rejects_nonunit(self):
        with pytest.raises(NotUnimodular):
            iwahori_cell(LaurentMatrix.diagonal([t(1), LaurentPoly.one()]))
        with pytest.raises(NotUnimodular):
            iwahori_cell(LaurentMatrix.diagonal([t(1) + 1, LaurentPoly.one()]))

    def test_empty_matrix_is_a_package_error(self):
        with pytest.raises(AffcellsError):
            iwahori_cell(LaurentMatrix([]))


class TestParabolicCell:
    def test_identity(self):
        assert parabolic_cell(LaurentMatrix.identity(3), {1, 2}) == affine.identity(3)

    def test_dense_point_hits_kappa(self):
        from affcells.constructions import decompose_varpi, lift_finite

        for lam in (Composition((1, 1)), Composition((2, 1)), Composition((1, 2))):
            bundle = kappa_bundle(lam)
            w_g, _ = decompose_varpi(bundle)
            a = lift_finite(w_g.inverse())
            point = a * cells.deformation(richardson_element(lam))
            assert parabolic_cell(point, parabolic_subset(lam)) == bundle.kappa

    def test_grassmannian_cell_of_dense_nilpotent(self):
        # the cell of 1 - t^-1 Z is bounded by the translation attached to
        # the Jordan type, with equality of spherical double cosets
        for lam in (Composition((1, 1)), Composition((2, 1)), Composition((2, 2))):
            bundle = kappa_bundle(lam)
            cell = parabolic_cell(richardson_point(lam), finite_subset(lam.n))
            assert affine.bruhat_leq(cell, bundle.tau_q)
            assert affine.min_double_coset_rep(cell, finite_subset(lam.n)) == \
                affine.min_double_coset_rep(bundle.tau_q, finite_subset(lam.n))


class TestPhi:
    def test_base_point(self):
        lam = Composition((2, 1))
        point, flag, _ = phi_map(LaurentMatrix.identity(3), LaurentMatrix.zero(3), lam)
        assert point == LaurentMatrix.identity(3)
        expected = []
        for i in range(lam.r + 1):
            diag = [t(-1) if j < lam.d[i] else LaurentPoly.one() for j in range(3)]
            expected.append(Lattice.from_basis(LaurentMatrix.diagonal(diag)))
        assert flag.lattices == tuple(expected)

    def test_point_formula(self):
        lam = Composition((2, 1))
        point, _, _ = phi_map(LaurentMatrix.identity(3), richardson_element(lam), lam)
        assert point == richardson_point(lam)

    def test_step_dimensions(self):
        lam = Composition((2, 1))
        _, flag, _ = phi_map(LaurentMatrix.identity(3), richardson_element(lam), lam)
        assert quotient_dim(flag.lattices[1], flag.lattices[0]) == 2

    def test_equivariance_classes(self):
        from affcells.laurent import invert
        from affcells.sampling import random_parabolic

        rng = random.Random(31)
        lam = Composition((2, 2))
        for _ in range(5):
            g = random_sl(rng, 4)
            x = random_nilradical(rng, lam)
            p = random_parabolic(rng, lam)[0]
            _, flag, _ = phi_map(g, x, lam)
            _, flag2, _ = phi_map(g * p, invert(p) * x * p, lam)
            assert flag == flag2

    @pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 2, 1, 1)])
    def test_lattices_are_the_scaled_point_images(self, parts):
        # L_i = point * diag(t^-1 on the first d_i coordinates) V[t], each
        # built anew from the point; both containments, since == checks one.
        lam = Composition(parts)
        n = lam.n
        rng = random.Random(sum(parts) * 11 + len(parts))
        for _ in range(4):
            point, flag, _ = phi_map(random_sl(rng, n), random_nilradical(rng, lam), lam)
            for d, walked in zip(lam.d, flag.lattices):
                diag = [t(-1) if j < d else LaurentPoly.one() for j in range(n)]
                rebuilt = Lattice.from_basis(point * LaurentMatrix.diagonal(diag))
                assert walked == rebuilt and rebuilt.contains_lattice(walked)

    def test_point_is_the_frame_times_the_deformation(self):
        # phi_map builds g - t^-1 (g X) from scalar rows; Laurent matrix
        # arithmetic is the reference.  Frames and X carry Fractions, so
        # some products of Fractions are integral: every stored coefficient
        # must be a nonzero int or a Fraction that is not integral.
        rng = random.Random(37)
        frames = (random_sl, random_finite_borel,
                  lambda rng, n: random_parabolic(rng, Composition((n,)))[0])
        seen = set()
        for n in range(1, 6):
            for lam in compositions_of(n):
                for frame in frames:
                    g = frame(rng, n)
                    x = random_nilradical(rng, lam) * rng.choice((1, Fraction(1, 2), Fraction(2, 3)))
                    point = phi_map(g, x, lam)[0]
                    assert point == g * cells.deformation(x)
                    coeffs = [c for row in point.rows for p in row for c in p.terms.values()]
                    assert all(c and (type(c) is int or type(c) is Fraction and c.denominator != 1)
                               for c in coeffs)
                    seen.update(map(type, coeffs))
        assert seen == {int, Fraction}

    def test_rejects_bad_inputs(self):
        lam = Composition((2, 1))
        low = LaurentMatrix.from_entries(3, {(3, 1): LaurentPoly.one()})
        with pytest.raises(NotInNilradical):
            phi_map(LaurentMatrix.identity(3), low, lam)
        with pytest.raises(NotInNilradical):
            phi_map(LaurentMatrix.identity(3), LaurentMatrix.from_entries(3, {(1, 3): t(1)}), lam)
        not_sl = LaurentMatrix.diagonal([LaurentPoly.constant(2),
                                         LaurentPoly.one(), LaurentPoly.one()])
        with pytest.raises(NotUnimodular):
            phi_map(not_sl, LaurentMatrix.zero(3), lam)
        # det 2 from Fraction entries: 1/2 * 4 * 1
        half = LaurentMatrix.diagonal([Fraction(1, 2), 4, 1])
        with pytest.raises(NotUnimodular):
            phi_map(half, LaurentMatrix.zero(3), lam)
        # a frame with det 1 that is not constant
        with pytest.raises(NotUnimodular):
            phi_map(LaurentMatrix.diagonal([t(1), t(-1), 1]), LaurentMatrix.zero(3), lam)
        # matrices smaller, or larger, than the composition
        with pytest.raises(SizeMismatch):
            phi_map(LaurentMatrix.identity(2), LaurentMatrix.zero(2), lam)
        with pytest.raises(SizeMismatch):
            phi_map(LaurentMatrix.identity(3), LaurentMatrix.zero(3), Composition((1, 1)))


def _walked_cell_mismatches():
    """phi_map points, n <= 5, whose returned cell is not iwahori_cell of the
    point (which walks it afresh after checking its determinant)."""
    rng = random.Random(41)
    bad = []
    for n in range(1, 6):
        for lam in compositions_of(n):
            for _ in range(3):
                point, _, w = cells.phi_map(random_sl(rng, n), random_nilradical(rng, lam), lam)
                if w != iwahori_cell(point):
                    bad.append((lam.parts, w.window))
    return bad


def _walked_psi_mismatches():
    """psi_map points, three conjugates of each Jordan type with n <= 5,
    whose returned cell is not iwahori_cell of the point or whose lattice is
    not the span of the point (both containments, since == checks one)."""
    rng = random.Random(43)
    bad = []
    for n in range(1, 6):
        for mu in partitions_of(n):
            for _ in range(3):
                g, ginv = random_conjugate_frame(rng, n)
                point, lat, w = cells.psi_map(g * jordan_matrix(mu) * ginv)
                fresh = Lattice.from_basis(point)
                if w != iwahori_cell(point) or not (lat == fresh and fresh.contains_lattice(lat)):
                    bad.append((mu.parts, w.window))
    return bad


class TestWalkedCell:
    def test_phi_map_cell_is_the_iwahori_cell(self):
        assert _walked_cell_mismatches() == []

    def test_psi_map_cell_and_lattice_are_the_fresh_ones(self):
        assert _walked_psi_mismatches() == []

    def test_a_reversed_window_is_caught(self, monkeypatch):
        phi = cells.phi_map

        def reversed_window(g, X, lam):
            point, flag, w = phi(g, X, lam)
            return point, flag, AffinePermutation(w.window[::-1])

        monkeypatch.setattr(cells, "phi_map", reversed_window)
        assert _walked_cell_mismatches()

    def test_a_reversed_psi_window_is_caught(self, monkeypatch):
        psi = cells.psi_map

        def reversed_window(X):
            point, lat, w = psi(X)
            return point, lat, AffinePermutation(w.window[::-1])

        monkeypatch.setattr(cells, "psi_map", reversed_window)
        assert _walked_psi_mismatches()

    def test_a_shifted_psi_lattice_is_caught(self, monkeypatch):
        psi = cells.psi_map

        def shifted_lattice(X):
            point, lat, w = psi(X)
            return point, lat.scaled(1), w

        monkeypatch.setattr(cells, "psi_map", shifted_lattice)
        assert _walked_psi_mismatches()


def fresh_indices(point):
    """The sorted leading indices of point * V[t], from a fresh
    triangularization of its columns rather than the chain walk."""
    return Lattice.from_basis(point)._indices()


class TestFreshLatticeIndices:
    """The sorted leading indices of M V[t] are the sorted window of M's
    cell, which pins its right coset w W_fin from a lattice the walk does
    not build."""

    @given(st.integers(1, 8), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_iwahori_conjugates(self, n, seed):
        rng = random.Random(seed)
        w = random_window(rng, n, 3)
        m = random_iwahori(rng, n) * w.to_matrix() * random_iwahori(rng, n)
        assert fresh_indices(m) == tuple(sorted(iwahori_cell(m).window))

    @given(st.integers(1, 8), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_phi_points(self, n, seed):
        rng = random.Random(seed)
        lam = rng.choice(list(compositions_of(n)))
        point, _, w = phi_map(random_sl(rng, n), random_nilradical(rng, lam), lam)
        assert fresh_indices(point) == tuple(sorted(w.window))


def step_lattice_window(point):
    """The cell window of point off fresh lattices: entry j is the one
    leading index of point Lambda_j that point Lambda_{j-1} lacks, where
    point Lambda_j is Lattice.from_columns of columns 1..j of point and t
    times the rest.  No chain walk is involved."""
    n = point.n
    cols = [point.column(j) for j in range(1, n + 1)]
    raised = [[p.shift(1) for p in col] for col in cols]
    indices = [set(Lattice.from_columns(cols[:j] + raised[j:], n)._indices())
               for j in range(n + 1)]
    window = []
    for inner, outer in zip(indices, indices[1:]):
        (new,) = outer - inner
        window.append(new)
    return tuple(window)


def paper_point(kind, rng, n):
    """(point, walked cell) of a random phi point (any composition shape),
    psi point (any Jordan type) or divisor point (phi of a divisor lift with
    X = a E_gamma, as the divisors suite builds them), of size n."""
    if kind == "phi":
        lam = rng.choice(list(compositions_of(n)))
        point, _, w = cells.phi_map(random_sl(rng, n), random_nilradical(rng, lam), lam)
    elif kind == "psi":
        g, ginv = random_conjugate_frame(rng, n)
        point, _, w = cells.psi_map(g * jordan_matrix(rng.choice(list(partitions_of(n)))) * ginv)
    else:
        lam = rng.choice([lam for lam in compositions_of(n) if lam.r >= 2])
        data = divisor_data(lam, rng.randint(1, lam.r - 1))
        a = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
        x = unit(n, data.gamma.i, data.gamma.j, LaurentPoly.constant(a))
        point, _, w = cells.phi_map(random_finite_borel(rng, n) * data.lift, x, lam)
    return point, w


POINT_KINDS = ("phi", "psi", "divisor")


def free_position_count(H, n):
    """sum over r of #{i < H_r : H_(i mod n) < i}, for leading indices H
    keyed by residue: the indices below each H_r that the lattice lacks."""
    return sum(1 for r in H for i in range(min(H.values()), H[r]) if H[i % n] < i)


def step_lattice_failures(point, w):
    """The checks of the walked cell w of point that fail: the step-lattice
    window, and two cheap corollaries on the leading indices H of point V[t]:
    sorted(H) is the sorted window, and the free-position count of H is the
    length of min_coset_rep(w, finite, RIGHT), which ties H to the affine
    length code."""
    H = {r: entry[0] for r, entry in Lattice.from_basis(point).basis.items()}
    rep = affine.min_coset_rep(w, finite_subset(w.n), affine.Side.RIGHT)
    checks = {
        "step window": w.window == step_lattice_window(point),
        "sorted window": sorted(H.values()) == sorted(w.window),
        "coset length": free_position_count(H, w.n) == rep.length(),
    }
    return {name for name, ok in checks.items() if not ok}


def _step_window_mismatches():
    """(kind, failed check) over three points of each kind for each
    n = 2..6."""
    rng = random.Random(29)
    bad = set()
    for kind in POINT_KINDS:
        for n in range(2, 7):
            for _ in range(3):
                point, w = paper_point(kind, rng, n)
                bad |= {(kind, check) for check in step_lattice_failures(point, w)}
    return bad


class TestStepLattices:
    """The walked cells of the paper's points against the window read off
    fresh step lattices point Lambda_0 < ... < point Lambda_n, and against
    the leading indices of point V[t]."""

    @given(st.sampled_from(POINT_KINDS), st.integers(2, 7), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_walked_window_is_the_step_lattice_window(self, kind, n, seed):
        point, w = paper_point(kind, random.Random(seed), n)
        assert step_lattice_failures(point, w) == set()

    def test_every_kind_agrees(self):
        assert _step_window_mismatches() == set()

    def test_a_reversed_window_is_caught(self, monkeypatch):
        # A reversal stays in the coset w W_fin, so only the step window sees it.
        walk = cells.chain_walk

        def reversed_walk(M):
            stuck, chain = walk(M)
            return stuck[::-1], chain

        monkeypatch.setattr(cells, "chain_walk", reversed_walk)
        assert _step_window_mismatches() == {(kind, "step window") for kind in POINT_KINDS}

    def test_an_index_moved_by_n_is_caught(self, monkeypatch):
        # w(1) moves up by n; w(n) moves down by n so the window stays valid.
        walk = cells.chain_walk

        def moved_walk(M):
            stuck, chain = walk(M)
            return [stuck[0] + M.n] + stuck[1:-1] + [stuck[-1] - M.n], chain

        monkeypatch.setattr(cells, "chain_walk", moved_walk)
        assert _step_window_mismatches() == {
            (kind, check) for kind in POINT_KINDS
            for check in ("step window", "sorted window", "coset length")
        }


# The relative position of the standard chain L_i = span{u_b : b <= i}
# (u_{qn+r} = t^-q e_r) and M L_j, by plain linear algebra that shares no code
# with the lattice engine.  For M in I w I,
#
#     r_M(i, j) = dim L_i / (L_i & M L_j) = #{b <= i : w^-1(b) > j},
#
# since b1 fixes L_i, b2 fixes L_j, and w L_j = span{u_w(a) : a <= j}.  Every
# M L_j contains t^N V[t] = span{u_b : b <= -Nn} once t^(N-1) M^-1 is
# polynomial, so the quotient is read modulo t^N V[t], a finite-dimensional
# space: an echelon over Fraction, keyed by the largest index, holds M L_j
# there, and L_i & M L_j is spanned by the rows whose lead is at most i.
# M^-1 comes from `invert` (Bareiss).


def relative_position(M, rows):
    """{(i, j): r_M(i, j)} for i in rows and j = 0..n-1, with M L_j grown
    from M L_0 = t M V[t] one column at a time."""
    n = M.n
    floor = n * min(p.ord() for row in invert(M).rows for p in row if p) - n
    echelon = {}

    def grow(column, shift):
        # Every t^m column, m >= shift, truncated to the indices above floor,
        # until the truncation is empty.
        while True:
            v = {s - n * (e + shift): Fraction(c) for s, p in enumerate(column, 1)
                 for e, c in p.terms.items() if s - n * (e + shift) > floor}
            if not v:
                return
            while v:
                lead = max(v)
                row = echelon.get(lead)
                if row is None:
                    echelon[lead] = v
                    break
                c = v[lead] / row[lead]
                for e, x in row.items():
                    y = v.get(e, 0) - c * x
                    if y:
                        v[e] = y
                    else:
                        del v[e]
            shift += 1

    cols = [M.column(r) for r in range(1, n + 1)]
    table = {}
    for col in cols:
        grow(col, 1)
    for j in range(n):
        if j:
            grow(cols[j - 1], 0)
        table.update(((i, j), sum(1 for b in range(floor + 1, i + 1) if b not in echelon))
                     for i in rows)
    return table


def position_of(w, rows):
    """{(i, j): #{b <= i : w^-1(b) > j}} for i in rows and j = 0..n-1: the
    a > j with w(a) <= i, one period of a at a time."""
    n = w.n
    return {(i, j): sum(max(0, (i - w(a)) // n + 1) for a in range(j + 1, j + n + 1))
            for i in rows for j in range(n)}


def relative_position_mismatches(point, w):
    """Where the table of w disagrees with the oracle of point, over one
    period of j and the i within n of w(1..n)."""
    rows = range(min(w.window) - w.n, max(w.window) + w.n + 1)
    got, want = relative_position(point, rows), position_of(w, rows)
    return {key for key in want if got[key] != want[key]}


def iwahori_point(rng, n):
    """(b1 w b2, w) for b1, b2 random Iwahori elements."""
    w = random_window(rng, n, 2)
    return random_iwahori(rng, n) * w.to_matrix() * random_iwahori(rng, n), w


RELATIVE_KINDS = ("iwahori",) + POINT_KINDS


def relative_point(kind, rng, n):
    return iwahori_point(rng, n) if kind == "iwahori" else paper_point(kind, rng, n)


def _relative_position_mismatches():
    """The kinds, over three points of each for each n = 2..6, where
    iwahori_cell disagrees with the oracle."""
    rng = random.Random(41)
    bad = set()
    for kind in RELATIVE_KINDS:
        for n in range(2, 7):
            for _ in range(3):
                point, _ = relative_point(kind, rng, n)
                if relative_position_mismatches(point, iwahori_cell(point)):
                    bad.add(kind)
    return bad


class TestRelativePosition:
    """iwahori_cell against r_M(i, j), computed without the lattice engine."""

    @given(st.sampled_from(RELATIVE_KINDS), st.integers(2, 6), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_cell_is_the_relative_position(self, kind, n, seed):
        point, w = relative_point(kind, random.Random(seed), n)
        # The oracle alone, on a known cell; then the cell the engine reads.
        assert relative_position_mismatches(point, w) == set()
        assert iwahori_cell(point) == w

    def test_a_reversed_window_is_caught(self, monkeypatch):
        walk = cells.chain_walk

        def reversed_walk(M):
            stuck, chain = walk(M)
            return stuck[::-1], chain

        monkeypatch.setattr(cells, "chain_walk", reversed_walk)
        assert _relative_position_mismatches() == set(RELATIVE_KINDS)

    def test_an_index_moved_by_n_is_caught(self, monkeypatch):
        walk = cells.chain_walk

        def moved_walk(M):
            stuck, chain = walk(M)
            return [stuck[0] + M.n] + stuck[1:-1] + [stuck[-1] - M.n], chain

        monkeypatch.setattr(cells, "chain_walk", moved_walk)
        assert _relative_position_mismatches() == set(RELATIVE_KINDS)

    def test_a_reversed_chain_convention_is_caught(self, monkeypatch):
        # The planted boundary puts t^e e_r at chain index (n + 1 - r) - n e,
        # the chain of w0 L_i.  The walk and every fresh lattice share it, so
        # the step-lattice checks agree with the walk; the oracle does not.
        planted = plant(lattices._flat, "r - n * e", "n + 1 - r - n * e")
        for module in (lattices, cells):
            monkeypatch.setattr(module, "_flat", planted)
        assert _step_window_mismatches() == set()
        assert _relative_position_mismatches() == set(RELATIVE_KINDS)

class TestPsi:
    def test_zero(self):
        point, lat, w = psi_map(LaurentMatrix.zero(3))
        assert point == LaurentMatrix.identity(3)
        assert lat == Lattice.standard(3)
        assert w == affine.identity(3)

    def test_dense_nilpotent_lattice(self):
        z = richardson_element(Composition((1, 1)))
        _, lat, _ = psi_map(z)
        expected = Lattice.from_basis(
            LaurentMatrix([[LaurentPoly.one(), -t(-1)], [LaurentPoly.zero(), LaurentPoly.one()]])
        )
        assert lat == expected

    def test_equivariance(self):
        rng = random.Random(37)
        z = richardson_element(Composition((2, 1)))
        for _ in range(5):
            g, ginv = random_conjugate_frame(rng, 3)
            _, lat, _ = psi_map(g * z * ginv)
            assert lat == Lattice.from_basis(g * psi_map(z)[0])

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotent):
            psi_map(LaurentMatrix.identity(2))
        # X^2 = 0 != X stops the powers early; a 3-cycle never reaches zero.
        psi_map(LaurentMatrix.from_entries(3, {(1, 3): LaurentPoly.one()}))
        with pytest.raises(NotNilpotent):
            psi_map(LaurentMatrix.from_entries(3, {(1, 2): 1, (2, 3): 1, (3, 1): 1}))
        with pytest.raises(NotNilpotent):
            psi_map(LaurentMatrix.from_entries(2, {(1, 2): t(1)}))

    def test_nilpotency_stops_at_the_first_zero_power(self):
        # Every Jordan type passes, however early its powers vanish; closing
        # the single block into an n-cycle (no power is zero) raises.
        for n in range(1, 6):
            for mu in partitions_of(n):
                psi_map(jordan_matrix(mu))
            with pytest.raises(NotNilpotent):
                psi_map(jordan_matrix(Partition((n,))) + LaurentMatrix.from_entries(n, {(n, 1): 1}))


def _mv_flag_mismatches():
    """mv_flag lattices, three random inputs for each two-part lambda with
    n <= 5, that are not Lattice.from_columns of the same columns (both
    containments, since == checks one)."""
    rng = random.Random(53)
    bad = []
    for n in range(2, 6):
        for lam in compositions_of(n):
            if lam.r != 2:
                continue
            for _ in range(3):
                g, ginv = random_conjugate_frame(rng, n)
                x = g * random_nilradical(rng, lam) * ginv
                point = (LaurentMatrix.identity(n) - x * t(-1)) * g
                for i, lat in enumerate(mv_flag(x, lam, frame=g)):
                    cols = [[p.shift(-1) for p in g.column(k)] if k <= lam.d[i]
                            else point.column(k) for k in range(1, n + 1)]
                    fresh = Lattice.from_columns(cols, n)
                    if not (lat == fresh and fresh.contains_lattice(lat)):
                        bad.append((lam.parts, i))
    return bad


class TestMvFlag:
    def test_lattices_are_the_spans_of_their_columns(self):
        assert _mv_flag_mismatches() == []

    def test_a_shifted_column_is_caught(self, monkeypatch):
        triangular = cells._triangular_basis

        def shifted_first_column(vectors, n):
            vectors = list(vectors)
            vector, offset = vectors[0]
            vectors[0] = (vector, offset + 1)
            return triangular(vectors, n)

        monkeypatch.setattr(cells, "_triangular_basis", shifted_first_column)
        assert _mv_flag_mismatches()

    def test_base_point(self):
        lam = Composition((1, 1))
        flags = mv_flag(LaurentMatrix.zero(2), lam)
        for i in range(lam.r + 1):
            diag = [t(-1) if j < lam.d[i] else LaurentPoly.one() for j in range(2)]
            assert flags[i] == Lattice.from_basis(LaurentMatrix.diagonal(diag))
        # top lattice is t^-1 V[t]
        assert flags[-1] == Lattice.standard(2).scaled(-1)

    def test_agrees_with_phi_for_two_steps(self):
        lam = Composition((1, 1))
        z = richardson_element(lam)
        _, flag, _ = phi_map(LaurentMatrix.identity(2), z, lam)
        assert beta(mv_flag(z, lam), lam) == flag

    def test_beta_needs_two_steps(self):
        lam = Composition((1, 1, 1))
        flags = mv_flag(LaurentMatrix.zero(3), lam)
        with pytest.raises(NotMaximalParabolic):
            beta(flags, lam)

    def test_rejects_flag_violation(self):
        lam = Composition((1, 1))
        # E_{1,2} does not carry F_1 = <e_1 + e_2> into 0 for the frame below
        frame = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.zero()],
                               [LaurentPoly.one(), LaurentPoly.one()]])
        x = LaurentMatrix.from_entries(2, {(1, 2): LaurentPoly.one()})
        with pytest.raises(NotInNilradical):
            mv_flag(x, lam, frame=frame)

    def test_frame_coordinates_match_the_inverse(self):
        # mv_flag accepts X exactly when frame^-1 X frame lies in the
        # nilradical, read here through laurent.invert.
        rng = random.Random(59)
        for n in range(2, 5):
            for lam in compositions_of(n):
                if lam.r != 2:
                    continue
                for _ in range(4):
                    g = random_sl(rng, n)
                    x = random_nilradical(rng, lam) + random_nilradical(rng, lam) * g
                    coords = invert(g) * x * g
                    ok = coords.is_constant() and all(
                        not coords.entry(p, q) or lam.blocks[p - 1] < lam.blocks[q - 1]
                        for p in range(1, n + 1) for q in range(1, n + 1))
                    if ok:
                        mv_flag(x, lam, frame=g)
                    else:
                        with pytest.raises(NotInNilradical):
                            mv_flag(x, lam, frame=g)

    def test_rejects_singular_frame(self):
        lam = Composition((1, 1))
        frame = LaurentMatrix([[LaurentPoly.one(), LaurentPoly.one()],
                               [LaurentPoly.zero(), LaurentPoly.zero()]])
        with pytest.raises(NotUnimodular):
            mv_flag(LaurentMatrix.zero(2), lam, frame=frame)
