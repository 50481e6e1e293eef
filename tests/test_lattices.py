import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affcells import lattices, laurent
from affcells.cells import iwahori_cell, mv_flag
from affcells.errors import FlagInvariantError, IdentityFailed, NotContained
from affcells.lattices import AffineFlag, Lattice, chain_walk, quotient_dim, vdim
from affcells.laurent import LaurentMatrix, LaurentPoly, det, invert
from affcells.partitions import Composition
from affcells.sampling import random_iwahori, random_nilradical, random_sl, random_window
from planting import leibniz_det, plant

t = LaurentPoly.t
ONE, ZERO = LaurentPoly.one(), LaurentPoly.zero()


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

    @pytest.mark.parametrize(
        "cols, n",
        [
            # {1, 1 + t^-1} spans t^-1 k[t], but only a basis is accepted
            ([[ONE], [ONE + t(-1)]], 1),
            ([[ONE, ZERO], [ZERO, ONE], [t(-1), t(-1)]], 2),
            ([[ONE, ZERO]], 2),
            ([[ONE], [ONE]], 2),
            # det(e_1 + e_2, e_1 + e_2) = 0
            ([[ONE, ONE], [ONE, ONE]], 2),
        ],
        ids=["two-generators-at-rank-one", "three-generators-at-rank-two",
             "one-generator-at-rank-two", "short-columns", "singular"],
    )
    def test_rejects_family_that_is_not_a_basis(self, cols, n):
        with pytest.raises(ValueError):
            Lattice.from_columns(cols, n)

    def test_exact_scalar_entries_are_coerced(self):
        half = LaurentPoly.constant(Fraction(1, 2))
        expected = Lattice.from_columns([[ONE, ZERO], [half, t(-1)]], 2)
        assert Lattice.from_columns([[1, 0], [Fraction(1, 2), t(-1)]], 2) == expected
        with pytest.raises(TypeError, match="not an exact scalar"):
            Lattice.from_columns([[1.0, 0], [0, 1]], 2)

    def test_contains_coerces_exact_scalars(self):
        E = Lattice.standard(2)
        assert E.contains([1, 0]) and E.contains([Fraction(1, 2), t(1)])
        assert not E.contains([0, Fraction(1, 2) * t(-1)])
        with pytest.raises(TypeError, match="not an exact scalar"):
            E.contains([1.0, 0])

    def test_two_bases_of_a_three_generator_span(self):
        # e_1, e_2 and t^-1 (e_1 + e_2) span the lattice with basis
        # t^-1 (e_1 + e_2), e_2, and also with basis t^-1 (e_1 + e_2), e_1.
        first = Lattice.from_basis(LaurentMatrix([[t(-1), ZERO], [t(-1), ONE]]))
        second = Lattice.from_basis(LaurentMatrix([[t(-1), ONE], [t(-1), ZERO]]))
        assert first == second
        assert hash(first) == hash(second)
        assert first.contains([ONE, ZERO]) and first.contains([ZERO, ONE])
        assert vdim(first) == 1
        assert first != Lattice.standard(2).scaled(-1)
        # e_1, t^-1 e_2 has the same leading indices (1 and 4), but t^-1 e_2
        # is not in the span
        other = Lattice.from_basis(LaurentMatrix.diagonal([ONE, t(-1)]))
        assert not first.contains([ZERO, t(-1)])
        assert first != other and other != first

    def test_membership(self):
        L = Lattice.from_basis(
            LaurentMatrix([[LaurentPoly.one(), t(-1)], [LaurentPoly.zero(), LaurentPoly.one()]])
        )
        assert L.contains([t(-1), LaurentPoly.one()])
        assert L.contains([LaurentPoly.one(), LaurentPoly.zero()])
        assert not L.contains([t(-2), LaurentPoly.zero()])
        with pytest.raises(ValueError):
            L.contains([LaurentPoly.one()])


class TestVdim:
    def test_standard(self):
        assert vdim(Lattice.standard(4)) == 0

    def test_scaled(self):
        assert vdim(Lattice.standard(4).scaled(1)) == -4

    def test_unipotent_image(self):
        z = LaurentMatrix.from_entries(2, {(1, 2): LaurentPoly.one()})
        point = LaurentMatrix.identity(2) - z * t(-1)
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

    @pytest.mark.parametrize("swap", [False, True])
    def test_t_L_r_with_the_indices_of_L_0_is_another_lattice(self, swap):
        # The pair of test_two_bases_of_a_three_generator_span: leading
        # indices 1 and 4 in both, but neither contains the other.
        first = Lattice.from_basis(LaurentMatrix([[t(-1), ZERO], [t(-1), ONE]]))
        other = Lattice.from_basis(LaurentMatrix.diagonal([ONE, t(-1)]))
        L0, tLr = (other, first) if swap else (first, other)
        flag = AffineFlag(lattices=(L0, tLr.scaled(-1)), shape=Composition((2,)))
        with pytest.raises(FlagInvariantError, match="t L_r != L_0"):
            flag.validate()


# An oracle that shares no code with the chain-index engine: for bases B, B'
# (unit matrices times diagonal t-powers), B' V[t] lies in B V[t] iff
# invert(B) * B' is polynomial, dim B V[t] / B' V[t] is then ord det of that
# product, and vdim(B V[t]) = -ord det(B).  invert and det are Bareiss.


def _polynomial(m: LaurentMatrix) -> bool:
    return all(p.is_polynomial() for row in m.rows for p in row)


@st.composite
def _bases(draw, n, entries, exponents, units=(1, -1, 2)):
    m = LaurentMatrix.identity(n)
    for _ in range(draw(st.integers(0, 5)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        p = LaurentPoly(draw(st.dictionaries(entries, st.integers(-3, 3), max_size=2)))
        m = m * (LaurentMatrix.identity(n) + LaurentMatrix.from_entries(n, {(i, j): p}))
    return m * LaurentMatrix.diagonal(
        [LaurentPoly.monomial(draw(exponents), draw(st.sampled_from(units)))
         for _ in range(n)]
    )


@st.composite
def _basis_pairs(draw):
    """(B, B') with B' = B W; W is unimodular over k[t] ("equal"), polynomial
    ("inside") or anything ("any"), so every answer is drawn often."""
    n = draw(st.integers(1, 3))
    laurent = st.integers(-2, 2)
    b = draw(_bases(n, laurent, laurent))
    kind = draw(st.sampled_from(("equal", "inside", "any")))
    polynomial = st.integers(0, 2)
    if kind == "any":
        w = draw(_bases(n, laurent, laurent))
    else:
        w = draw(_bases(n, polynomial, st.just(0) if kind == "equal" else polynomial))
    return b, b * w


class TestBareissOracle:
    @given(_basis_pairs())
    @settings(max_examples=80, deadline=None)
    def test_matches_bareiss(self, pair):
        b, b2 = pair
        outer, inner = Lattice.from_basis(b), Lattice.from_basis(b2)
        change = invert(b) * b2
        inside = _polynomial(change)
        assert vdim(outer) == -det(b).ord()
        assert vdim(inner) == -det(b2).ord()
        assert outer.contains_lattice(inner) == inside
        equal = inside and _polynomial(invert(b2) * b)
        assert (outer == inner) == equal
        if equal:
            assert hash(outer) == hash(inner)
        if inside:
            assert quotient_dim(outer, inner) == det(change).ord()
        else:
            with pytest.raises(NotContained):
                quotient_dim(outer, inner)

    @given(_basis_pairs(), st.integers(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_scaled_matches_rebuilt_basis(self, pair, k):
        b, _ = pair
        scaled = Lattice.from_basis(b).scaled(k)
        assert scaled == Lattice.from_basis(b * t(k))
        assert vdim(scaled) == -det(b).ord() - b.n * k


@st.composite
def _transform_pairs(draw):
    """(B, M): a lattice basis and a unit matrix of the same size."""
    n = draw(st.integers(1, 3))
    laurent = st.integers(-2, 2)
    return draw(_bases(n, laurent, laurent)), draw(_bases(n, laurent, laurent))


class TestOffsets:
    """t^k moves offsets and indices only: a scaled lattice shares its
    stored vectors and agrees with every other way of reaching it."""

    @given(_transform_pairs(), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_offset_algebra(self, pair, j, k):
        b, m = pair
        lat = Lattice.from_basis(b)
        scaled = lat.scaled(k)
        assert all(scaled.basis[r][2] is lat.basis[r][2] for r in lat.basis)
        assert lat.scaled(j).scaled(k).basis == lat.scaled(j + k).basis
        assert vdim(scaled) == vdim(lat) - b.n * k
        got, want = Lattice.from_basis(m * b * t(k)), Lattice.from_basis(m * b).scaled(k)
        assert got == want and want.contains_lattice(got)
        assert scaled.contains_lattice(lat.scaled(k + 1))
        assert (k >= 0) == lat.contains_lattice(scaled)


class TestCoefficientType:
    @given(_basis_pairs())
    @settings(max_examples=40, deadline=None)
    def test_from_columns_stores_exact_coefficients(self, pair):
        # Every column is scaled to integers on the way in: each stored
        # coefficient is a nonzero int, never a Fraction, a float or a bool.
        for b in pair:
            for _, lead, vector, offset in Lattice.from_basis(b).basis.values():
                coeffs = [lead, *vector.values()]
                assert offset == 0 and all(type(c) is int and c for c in coeffs)


class TestMvFlagOracle:
    @pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 2, 1), (2, 2)])
    def test_old_generators_lie_in_each_lattice(self, parts):
        lam = Composition(parts)
        n = lam.n
        rng = random.Random(sum(parts) * 7 + len(parts))
        for _ in range(4):
            g = random_sl(rng, n)
            x = g * random_nilradical(rng, lam) * invert(g)
            flag = mv_flag(x, lam, frame=g)
            point = LaurentMatrix.identity(n) - x * t(-1)
            low = g * t(-1)
            for i, lat in enumerate(flag):
                generators = [point.column(k) for k in range(1, n + 1)]
                generators += [low.column(k) for k in range(1, lam.d[i] + 1)]
                assert all(lat.contains(v) for v in generators)
                assert vdim(lat) == lam.d[i]


# The chain walk against its explicit generators.  M Lambda_j is spanned by
# columns 1..j of M and t times columns j+1..n; the walk reaches it by one
# column step at a time from a single triangularization.  Lattice.__eq__
# checks one containment only, which a proper sublattice with the same
# leading indices passes, so the oracle checks both directions and rebuilds
# each walked basis through from_columns, which rejects a span that is not a
# lattice.


@st.composite
def _unit_matrices(draw):
    """b1 * w * b2 with b1, b2 in the Iwahori: a unit matrix in the cell of w."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 6))
    w = random_window(rng, n, spread=draw(st.integers(0, 3)))
    return w, random_iwahori(rng, n) * w.to_matrix() * random_iwahori(rng, n)


def _column(v, k, n):
    """t^k times the stored vector v ({chain index: int}) as a Laurent column."""
    terms = [{} for _ in range(n)]
    for idx, c in v.items():
        terms[(idx - 1) % n][k - (idx - 1) // n] = c
    return [LaurentPoly(d) for d in terms]


def _check_chain(m, stuck, chain):
    n = m.n
    cols = [list(m.column(j)) for j in range(1, n + 1)]
    assert len(stuck) == n and len(chain) == n + 1
    for j, walked in enumerate(chain):
        rebuilt = Lattice.from_columns(
            [_column(v, k, n) for _, _, v, k in walked.basis.values()], n)
        explicit = Lattice.from_columns(
            cols[:j] + [[p.shift(1) for p in c] for c in cols[j:]], n)
        assert explicit.contains_lattice(walked) and walked.contains_lattice(explicit)
        assert vdim(walked) == vdim(rebuilt) == vdim(explicit)
    # t M Lambda_n = M Lambda_0, reduced against generators at offset 1.
    assert chain[-1].scaled(1) == chain[0]


class TestChainWalk:
    @given(_unit_matrices())
    @settings(max_examples=60, deadline=None)
    def test_every_step_is_the_explicit_lattice(self, drawn):
        w, m = drawn
        stuck, chain = chain_walk(m)
        assert tuple(stuck) == w.window
        _check_chain(m, stuck, chain)

    @given(st.integers(1, 5).flatmap(
        lambda n: _bases(n, st.integers(-2, 2), st.integers(-2, 2), units=(1, -1))))
    @settings(max_examples=60, deadline=None)
    def test_integer_input_stays_integer(self, m):
        # Unimodular over Z[t, t^-1]: the reduction step multiplies by a
        # positive integer instead of dividing by a leading coefficient, and
        # det and invert scale rows.
        stuck, chain = chain_walk(m)
        _check_chain(m, stuck, chain)
        coeffs = [c for lat in chain for _, lead, v, _ in lat.basis.values()
                  for c in [lead, *v.values()]]
        coeffs += [c for p in [det(m)] + [p for row in invert(m).rows for p in row]
                   for c in p.terms.values()]
        assert all(type(c) is int for c in coeffs)

    def test_dropped_offset_is_caught(self, monkeypatch):
        # A generator at offset hk is t^hk times its stored vector, so the
        # step moves its keys by idx - hidx - n hk.  The walk's own bases
        # hold offset 0, so the planted step, which drops the offset, walks
        # right; against the generators of M Lambda_n scaled by t it no
        # longer cancels the leading term.  Its step cap is lowered so that
        # a descent it starts fails fast.
        planted = plant(lattices._reduce, "idx - hidx - n * hk", "idx - hidx",
                        _MAX_REDUCTION_STEPS=1_000)
        monkeypatch.setattr(lattices, "_reduce", planted)
        errors = (AssertionError, ValueError, IdentityFailed)
        assert _oracle_failures(random.Random(5), 20, errors) == 20

    def test_naive_step_is_caught(self, monkeypatch):
        # The unsound step stores the reduced column itself: with the
        # multiplier on the displaced generator never recorded, the walk
        # keeps v in place of v - ((p - p(0))/t) g.
        reduce = lattices._reduce
        monkeypatch.setattr(lattices, "_reduce",
                            lambda v, k, basis, n, track=None:
                            None if track else reduce(v, k, basis, n))
        assert _oracle_failures(random.Random(5), 20, (AssertionError, ValueError))


def _oracle_failures(rng, cases, errors):
    """How many of `cases` random unit matrices make the walk or its
    explicit-generator oracle raise one of `errors`."""
    failures = 0
    for _ in range(cases):
        n = rng.randint(2, 6)
        m = random_iwahori(rng, n) * random_window(rng, n, 2).to_matrix() \
            * random_iwahori(rng, n)
        try:
            _check_chain(m, *chain_walk(m))
        except errors:
            failures += 1
    return failures


# Points shaped like the locate inputs: b1 P_w b2, with b1 and b2 products of
# Iwahori generators, a quarter of them diagonal pairs u E_ii + u^-1 E_jj with
# u in 2, 1/2, -1, so different columns carry different denominators and
# _flat scales each by its own.
_UNITS = (2, Fraction(1, 2), -1)


def _iwahori_generator(rng, n):
    i, j = rng.sample(range(n), 2)
    if rng.randrange(4) == 0:
        u = Fraction(rng.choice(_UNITS))
        return LaurentMatrix.diagonal([u if k == i else 1 / u if k == j else 1 for k in range(n)])
    p = LaurentPoly.monomial(rng.randint(1 if i > j else 0, 1), rng.choice((-2, -1, 1, 2)))
    return LaurentMatrix.identity(n) + LaurentMatrix.from_entries(n, {(i + 1, j + 1): p})


def _rational_point(rng, n):
    w = random_window(rng, n, spread=5)
    m = w.to_matrix()
    for _ in range(3 * n // 2):
        m = _iwahori_generator(rng, n) * m * _iwahori_generator(rng, n)
    return m, w


class TestRationalColumns:
    """The walk and det on points whose columns need different scales."""

    def test_cell_det_and_stored_vectors(self, monkeypatch):
        rng = random.Random(5)
        cases = [_rational_point(rng, n) for n in (4, 6) for _ in range(6)]
        scales = [{math.lcm(*(c.denominator for p in col for c in map(Fraction, p.terms.values())))
                   for col in zip(*m.rows)} for m, _ in cases]
        assert sum(len(s) > 1 for s in scales) >= len(cases) - 2
        divisors = []
        step = laurent._bareiss_step

        def traced(a, k, rows, prev, order):
            divisors.extend(c for c in prev.values() if len(prev) == 1 and abs(c) != 1)
            return step(a, k, rows, prev, order)

        monkeypatch.setattr(laurent, "_bareiss_step", traced)
        for m, w in cases:
            assert iwahori_cell(m) == w
            _, chain = chain_walk(m)
            assert all(type(c) is int for lat in chain for _, lead, v, _ in lat.basis.values()
                       for c in [lead, *v.values()])
            assert det(m) == leibniz_det(m.rows)
        # det divides by a pivot coefficient other than +-1 on these points.
        assert divisors


def _reduced_containment(outer, inner):
    """contains_lattice with every generator of inner reduced against outer."""
    return all(outer.contains(v, k) for _, _, v, k in inner.basis.values())


class TestSharedGenerators:
    """contains_lattice skips a generator of the other lattice that it holds
    itself (the same stored vector at the same offset); consecutive walked
    lattices share most of theirs.  The answer must be the one that reduces
    every generator."""

    @given(_unit_matrices(), st.integers(-1, 1))
    @settings(max_examples=40, deadline=None)
    def test_walked_chains(self, drawn, k):
        _, chain = chain_walk(drawn[1])
        lats = chain + [lat.scaled(k) for lat in chain]
        for outer in lats:
            for inner in lats:
                assert outer.contains_lattice(inner) == _reduced_containment(outer, inner)

    @given(_unit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_lattices_sharing_no_entries(self, drawn):
        m = drawn[1]
        _, chain = chain_walk(m)
        fresh = [Lattice.from_basis(m), Lattice.from_basis(m * LaurentPoly.t(1))]
        for walked in (chain[0], chain[-1]):
            for other in fresh:
                assert not {id(v) for v in _stored(walked)} & {id(v) for v in _stored(other)}
                for outer, inner in ((walked, other), (other, walked)):
                    assert outer.contains_lattice(inner) == _reduced_containment(outer, inner)

    def test_shared_generators_occur(self):
        # The walk's consecutive lattices do share stored vectors, so the
        # skip is taken on them.
        rng = random.Random(11)
        m = random_iwahori(rng, 4) * random_window(rng, 4, 2).to_matrix() * random_iwahori(rng, 4)
        _, chain = chain_walk(m)
        shared = sum(outer._holds(r, v, k) for inner, outer in zip(chain, chain[1:])
                     for r, (_, _, v, k) in inner.basis.items())
        assert shared > 0
        assert all(outer.contains_lattice(inner) for inner, outer in zip(chain, chain[1:]))


# The reduction loop edits one private copy of the vector it is given.  A
# stored vector is shared by the lattices of a walk and its working basis,
# and is reduced again by `contains_lattice` and by a new triangularization,
# so a loop that wrote into the dict it was given would change a caller's
# vector, a lattice's stored vectors, or the lattices of a walk.


def _copies(vectors):
    return [dict(v) for v in vectors]


def _stored(*lats):
    return [v for lat in lats for _, _, v, _ in lat.basis.values()]


def _entries(basis):
    return {r: (h, c, dict(v), k) for r, (h, c, v, k) in basis.items()}


def _assert_inputs_unchanged(m):
    n = m.n
    cols = [list(m.column(j)) for j in range(1, n + 1)]
    flat = [lattices._flat(c, n) for c in cols]
    given = flat + [p._terms for c in cols for p in c]
    before = _copies(given)
    _, chain = chain_walk(m)
    # chain[0] shares its vectors with the basis every later step reduces
    # against: it must still be the triangularization of t M.
    fresh = lattices._triangular_basis([(c, 1) for c in flat], n)
    assert _entries(chain[0].basis) == _entries(fresh)
    stored = _copies(_stored(*chain))
    for col, inner, outer in zip(flat, chain, chain[1:]):
        assert outer.contains_lattice(inner) and outer.contains(col)
    lattices._triangular_basis([(c, 0) for c in flat], n)
    lattices._triangular_basis([(v, k) for _, _, v, k in chain[-1].basis.values()], n)
    assert _copies(_stored(*chain)) == stored and _copies(given) == before


class TestCopyOnWrite:
    @given(_unit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_no_input_or_stored_vector_changes(self, drawn):
        _assert_inputs_unchanged(drawn[1])

    def test_writing_into_shared_dicts_is_caught(self, monkeypatch):
        # The planted loop skips its entry copy when k == 0: it steps and
        # scales the dict it was given.  Walked lattices share vectors, so on
        # a walk it soon steps a dict by itself and fails; on a vector that
        # shares no dict with the basis it still answers right, and only a
        # snapshot sees the write.  A corrupted basis can start an endless
        # descent: the cap is lowered.
        planted = plant(lattices._reduce, "x = dict(v) if k == 0 else ", "x = v if k == 0 else ",
                        _MAX_REDUCTION_STEPS=1_000)
        monkeypatch.setattr(lattices, "_reduce", planted)
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 6)
            m = random_iwahori(rng, n) * random_window(rng, n, 2).to_matrix() \
                * random_iwahori(rng, n)
            with pytest.raises((AssertionError, IdentityFailed, RuntimeError)):
                _assert_inputs_unchanged(m)
        v = {1: 1, -1: 1, -2: 3}  # e_1 + t e_1 + 3 t^2 e_2
        before = dict(v)
        assert Lattice.standard(2).contains(v)
        assert v != before
