import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affcells import affine
from affcells.affine import (
    AffinePermutation,
    Root,
    Side,
    act_on_root,
    bruhat_ball,
    bruhat_leq,
    identity,
    min_coset_rep,
    min_double_coset_rep,
    quad_minimum,
    reflection,
    simple_reflection,
    translation,
)
from affcells.errors import (
    AffcellsError,
    BadIndices,
    BadWindow,
    NotMonomialPermutation,
    PeriodMismatch,
)
from affcells.laurent import LaurentMatrix, LaurentPoly
from affcells.sampling import random_window
from affcells.verify import _interval
from planting import plant


def kappa_11():
    # diag(t, t^-1), window (-1, 4)
    return AffinePermutation((-1, 4))


@st.composite
def _windows(draw, n):
    """A window of period n whose orders c_i (w(i) = sigma(i) - c_i n) lie
    in -3..3, so their spread is at most 6."""
    sigma = draw(st.permutations(range(1, n + 1)))
    c = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    while sum(c) > 0:
        c[c.index(max(c))] -= 1
    while sum(c) < 0:
        c[c.index(min(c))] += 1
    return AffinePermutation(tuple(sigma[i] - c[i] * n for i in range(n)))


_sizes = st.integers(1, 8)


@st.composite
def _closed_results(draw):
    """u * v, u^-1 and the identity for windows u, v of one period n <= 8,
    and, for n >= 2, a simple reflection s_i and a reflection s_(a,b)."""
    n = draw(_sizes)
    u, v = draw(_windows(n)), draw(_windows(n))
    results = [u * v, u.inverse(), identity(n)]
    if n >= 2:
        a, b = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
        results += [simple_reflection(n, draw(st.integers(0, n - 1))), reflection(n, a, b)]
    return results


class TestWindowMatrix:
    def test_identity_roundtrip(self):
        for n in (1, 2, 5):
            assert affine.from_matrix(LaurentMatrix.identity(n)) == identity(n)

    def test_s0_window(self):
        m = LaurentMatrix([[LaurentPoly.zero(), LaurentPoly.t(-1)],
                           [LaurentPoly.t(1), LaurentPoly.zero()]])
        assert affine.from_matrix(m) == AffinePermutation((0, 3))
        assert simple_reflection(2, 0).to_matrix() == m
        assert repr(affine.from_matrix(m)) == "AffinePermutation((0, 3))"

    def test_diagonal_translation(self):
        m = LaurentMatrix.diagonal([LaurentPoly.t(1), LaurentPoly.t(-1)])
        assert affine.from_matrix(m) == kappa_11()

    def test_rejects_bad_shapes(self):
        with pytest.raises(NotMonomialPermutation):
            affine.from_matrix(LaurentMatrix([[LaurentPoly.one(), LaurentPoly.one()],
                                              [LaurentPoly.zero(), LaurentPoly.one()]]))
        with pytest.raises(NotMonomialPermutation):
            affine.from_matrix(LaurentMatrix.diagonal([LaurentPoly.t(1), LaurentPoly.one()]))

    @pytest.mark.parametrize(
        "window", [(), (1, 3), (1, 2, 6), (0.5, 2.5, 3.0), (1.0, 2), ("1", "2"), (True, 2)]
    )
    def test_bad_window_is_a_package_value_error(self, window):
        # empty, repeated residue, wrong sum, non-integer entries (a bool
        # is an int subclass whose sum is an int, so it is tested by type)
        with pytest.raises(BadWindow) as info:
            AffinePermutation(window)
        assert isinstance(info.value, AffcellsError) and isinstance(info.value, ValueError)

    def test_roundtrip_random(self):
        rng = random.Random(2)
        for _ in range(25):
            w = random_window(rng, rng.randint(2, 5))
            assert affine.from_matrix(w.to_matrix()) == w

    def test_any_integer_sequence_is_a_window(self):
        assert AffinePermutation([2, 1]) == AffinePermutation((2, 1))
        assert AffinePermutation([2, 1]).window == (2, 1)
        # the Bruhat cache keys on windows, which must be hashable
        assert bruhat_leq(AffinePermutation([2, 1, 3]), AffinePermutation([3, 2, 1]))

    def test_rejects_a_non_integer_translation(self):
        with pytest.raises(BadWindow):
            translation(2, [0.5, -0.5])

    @pytest.mark.parametrize("n", [0, -2])
    def test_identity_needs_a_positive_period(self, n):
        with pytest.raises(BadWindow):
            identity(n)


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(3)
        for _ in range(10):
            w = random_window(rng, 4)
            assert identity(4) * w == w
            assert w * identity(4) == w

    def test_simple_involution(self):
        for n in (2, 3, 4):
            for i in range(n):
                s = simple_reflection(n, i)
                assert s * s == identity(n)

    def test_factorization_instance(self):
        assert simple_reflection(2, 1) * kappa_11() == AffinePermutation((0, 3))

    def test_matches_matrix_product(self):
        rng = random.Random(4)
        for _ in range(10):
            u, v = random_window(rng, 3), random_window(rng, 3)
            assert (u * v).to_matrix() == u.to_matrix() * v.to_matrix()

    def test_period_mismatch(self):
        with pytest.raises(PeriodMismatch):
            identity(2) * identity(3)

    def test_inverse(self):
        rng = random.Random(5)
        for _ in range(20):
            w = random_window(rng, rng.randint(2, 6))
            assert w * w.inverse() == identity(w.n)
            assert w.inverse() * w == identity(w.n)

    @given(_sizes.flatmap(lambda n: st.tuples(_windows(n), _windows(n))))
    @settings(max_examples=100, deadline=None)
    def test_product_is_the_matrix_product(self, pair):
        w, v = pair
        assert w * v == affine.from_matrix(w.to_matrix() * v.to_matrix())

    @given(_closed_results())
    @settings(max_examples=150, deadline=None)
    def test_closed_operations_give_checked_windows(self, results):
        # products, inverses, the identity and reflections skip the window
        # checks; each result must still pass the checking constructor
        for x in results:
            assert all(type(v) is int for v in x.window)
            assert AffinePermutation(x.window) == x


class TestLength:
    def test_identity(self):
        assert identity(3).length() == 0
        assert identity(3).length_oracle() == 0

    def test_kappa_11(self):
        assert kappa_11().length() == 2

    def test_simple(self):
        assert simple_reflection(2, 0).length_oracle() == 1

    def test_window_example(self):
        assert AffinePermutation((-2, 2, 6)).length_oracle() == 4
        assert AffinePermutation((-2, 2, 6)).length() == 4

    def test_formula_matches_oracle_random(self):
        rng = random.Random(6)
        for _ in range(60):
            w = random_window(rng, rng.randint(2, 6), spread=4)
            assert w.length() == w.length_oracle()

    @given(_sizes.flatmap(_windows))
    @settings(max_examples=150, deadline=None)
    def test_window_formula_is_the_inversion_count(self, w):
        assert w.length() == w.length_oracle()

    @given(_sizes.flatmap(_windows))
    @settings(max_examples=150, deadline=None)
    def test_left_descents_are_right_descents_of_the_inverse(self, w):
        inv = w.inverse()
        for i in range(w.n):
            assert w.left_descent(i) == inv.right_descent(i)

    def test_step_by_one(self):
        rng = random.Random(7)
        for _ in range(15):
            w = random_window(rng, 4)
            for i in range(4):
                assert abs((w * simple_reflection(4, i)).length() - w.length()) == 1


class TestBruhat:
    def test_identity_below_all(self):
        rng = random.Random(8)
        for _ in range(10):
            w = random_window(rng, 3)
            assert bruhat_leq(identity(3), w)

    def test_s0_below_kappa(self):
        assert bruhat_leq(simple_reflection(2, 0), kappa_11())

    def test_incomparable_length_two(self):
        s0, s1 = simple_reflection(2, 0), simple_reflection(2, 1)
        assert not bruhat_leq(s1 * s0, s0 * s1)
        assert not bruhat_leq(s0 * s1, s1 * s0)

    def test_against_subword_oracle(self):
        ball = bruhat_ball(3, 4)
        for w in ball:
            below = _interval(w)
            for v in ball:
                assert bruhat_leq(v, w) == (v in below)

    def test_bounded_cache(self, monkeypatch):
        monkeypatch.setattr(affine, "_BRUHAT_CACHE", {})
        monkeypatch.setattr(affine, "_BRUHAT_CACHE_MAX", 8)
        ball = bruhat_ball(3, 4)
        for w in ball:
            below = _interval(w)
            for v in ball:
                assert bruhat_leq(v, w) == (v in below)
                assert len(affine._BRUHAT_CACHE) <= 8


def _window_count(w, i, j):
    """w[i, j] = #{a <= i : w(a) >= j}, summed over one period of a."""
    n = w.n
    return sum(max(0, (w(a) - j) // n + 1) for a in range(i - n + 1, i + 1))


def _window_leq(u, v):
    """Bjorner-Brenti Thm. 8.3.7: u <= v iff u[i, j] <= v[i, j] for i in 1..n
    and j from min{u(a), v(a) : a > i} to max{u(a), v(a) : a <= i}; outside
    that interval the two counts agree.  Reads the windows only."""
    n = u.n
    for i in range(1, n + 1):
        lo = min(w(a) for w in (u, v) for a in range(i + 1, i + n + 1))
        hi = max(w(a) for w in (u, v) for a in range(i - n + 1, i + 1))
        if any(_window_count(u, i, j) > _window_count(v, i, j) for j in range(lo, hi + 1)):
            return False
    return True


@st.composite
def _bruhat_pairs(draw):
    """(u, v) of one period n <= 8 with window spread <= 6.  Half the time v
    is u times up to six length-increasing simple reflections, so u <= v."""
    n = draw(_sizes)
    u = draw(_windows(n))
    if not draw(st.booleans()):
        return u, draw(_windows(n))
    v = u
    steps = st.tuples(st.integers(0, n - 1), st.booleans())
    for i, left in draw(st.lists(steps, max_size=6 if n > 1 else 0)):
        s = simple_reflection(n, i)
        w = s * v if left else v * s
        if w.length() > v.length():
            v = w
    return u, v


class TestBruhatWindowCriterion:
    """bruhat_leq (lifting with a memo) against the window criterion, which
    shares no code with descents, lifting or reduced words."""

    @given(_bruhat_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_window_criterion(self, pair):
        u, v = pair
        assert bruhat_leq(u, v) == _window_leq(u, v)

    def test_simple_reflections_against_identity(self):
        # s_i <= e fails only at the top j of the interval, and w <= w only
        # with a non-strict comparison: the pinned edges of the criterion.
        for n in range(2, 9):
            e = identity(n)
            for i in range(n):
                s = simple_reflection(n, i)
                assert not bruhat_leq(s, e) and not _window_leq(s, e)
                assert bruhat_leq(e, s) and _window_leq(e, s)
                assert bruhat_leq(s, s) and _window_leq(s, s)


class TestCosets:
    def test_parabolic_elements_reduce_to_identity(self):
        # any product of generators from J reduces to e
        J = {1, 2}
        w = simple_reflection(4, 1) * simple_reflection(4, 2) * simple_reflection(4, 1)
        assert min_coset_rep(w, J, Side.RIGHT) == identity(4)
        assert min_coset_rep(w, J, Side.LEFT) == identity(4)

    def test_length_additivity(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 5)
            w = random_window(rng, n)
            J = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            rep = min_coset_rep(w, J, Side.RIGHT)
            tail = rep.inverse() * w
            assert w.length() == rep.length() + tail.length()
            # the discarded part lies in the parabolic
            assert min_coset_rep(tail, J, Side.RIGHT) == identity(n)

    def test_divisor_example(self):
        # min rep of the antidiagonal element for blocks (2,1): the matrix
        # t E_{2,1} + E_{3,2} + t^-1 E_{1,3}
        m = LaurentMatrix.from_entries(3, {
            (2, 1): LaurentPoly.t(1), (3, 2): LaurentPoly.one(), (1, 3): LaurentPoly.t(-1)})
        expected = affine.from_matrix(m)
        v = AffinePermutation((3, -1, 4))
        assert min_coset_rep(v, {1}, Side.RIGHT) == expected

    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        _windows(n),
        st.lists(st.integers(0, n - 1), max_size=min(n - 1, 5), unique=True),
        st.sampled_from(Side),
    )))
    @settings(max_examples=60, deadline=None)
    def test_rep_is_the_unique_shortest_coset_element(self, case):
        # J is a proper subset of the n nodes, so W_J is finite (at most 6!
        # elements here); walk the whole coset breadth-first, and fail once
        # it outgrows that, as a broken product makes it endless.
        w, J, side = case
        n = w.n
        gens = [simple_reflection(n, j) for j in J]
        seen, layer = {w}, {w}
        while layer:
            layer = {u * s if side is Side.RIGHT else s * u for u in layer for s in gens} - seen
            seen |= layer
            assert len(seen) <= 720, "the coset walk does not close"
        shortest = min(x.length() for x in seen)
        (unique,) = [x for x in seen if x.length() == shortest]
        assert min_coset_rep(w, J, side) == unique

    def test_rep_computes_no_length(self, monkeypatch):
        def no_length(self):
            raise AssertionError("min_coset_rep computed a length")

        rng = random.Random(12)
        cases = [(random_window(rng, n), set(rng.sample(range(n), n - 1)), side)
                 for n in (2, 4, 6) for side in Side for _ in range(3)]
        monkeypatch.setattr(AffinePermutation, "length", no_length)
        for w, J, side in cases:
            min_coset_rep(w, J, side)

    def test_side_must_be_a_side(self):
        w = AffinePermutation((3, 1, 2))
        assert min_coset_rep(w, {1, 2}, Side.RIGHT) == identity(3)
        for side in ("right", "left", None):
            with pytest.raises(TypeError):
                min_coset_rep(w, {1, 2}, side)

    def test_double_coset_rep(self):
        tau = kappa_11()
        assert min_double_coset_rep(tau, {1}) == AffinePermutation((0, 3))


class TestTranslations:
    def test_finite_decomposition(self):
        s1 = simple_reflection(3, 1)
        sigma, q = affine.decompose_translation(s1)
        assert sigma == s1 and q == (0, 0, 0)

    def test_diagonal_orders(self):
        sigma, q = affine.decompose_translation(translation(2, (-1, 1)))
        assert sigma == identity(2) and q == (-1, 1)
        sigma, q = affine.decompose_translation(kappa_11())
        assert sigma == identity(2) and q == (1, -1)

    def test_recompose(self):
        rng = random.Random(10)
        for _ in range(20):
            w = random_window(rng, 4)
            sigma, q = affine.decompose_translation(w)
            assert sigma * translation(4, q) == w


class TestReflections:
    def test_adjacent(self):
        assert reflection(4, 1, 2).window == (2, 1, 3, 4)

    def test_s0(self):
        assert simple_reflection(2, 0).window == (0, 3)

    def test_long_transposition(self):
        assert reflection(3, 1, 3).window == (3, 2, 1)

    def test_bad_indices(self):
        with pytest.raises(BadIndices):
            reflection(3, 2, 2)
        with pytest.raises(BadIndices):
            simple_reflection(3, 3)


class TestRoots:
    def test_identity_action(self):
        alpha = Root(1, 3, 4)
        assert act_on_root(identity(4), alpha) == alpha

    def test_translation_action_shifts_by_delta(self):
        # diag(t^-1, t) sends (1,2) to (1,2) - 2 delta = (1, -2), a negative
        # root, matching the inversion count of the translation
        tau = translation(2, (-1, 1))
        assert act_on_root(tau, Root(1, 2, 2)) == Root(1, -2, 2)
        assert not act_on_root(tau, Root(1, 2, 2)).positive

    def test_s0_on_highest_root(self):
        got = act_on_root(simple_reflection(2, 0), Root(1, 2, 2))
        assert got == Root(2, 5, 2)

    def test_sign_matches_length_direction(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 5)
            w = random_window(rng, n)
            a = rng.randint(1, n - 1)
            b = rng.randint(a + 1, n)
            pos = act_on_root(w, Root(a, b, n)).positive
            assert pos == ((w * reflection(n, a, b)).length() > w.length())

    @given(_sizes.flatmap(_windows))
    @settings(max_examples=150, deadline=None)
    def test_images_are_canonical_roots(self, w):
        # act_on_root builds its image unchecked; it must be the root
        # Root.make gives and pass the checking constructor again
        assert _misplaced_roots(act_on_root, w) == []

    def test_an_image_left_unshifted_is_caught(self):
        unshifted = plant(act_on_root, "shift = -((i - 1) // n)", "shift = 0")
        assert _misplaced_roots(unshifted, identity(3)) == []
        assert _misplaced_roots(unshifted, translation(3, (1, 0, -1)))


def _misplaced_roots(act, w):
    """The roots (a, b), 1 <= a <= n and 1 - n <= b <= 2n, whose image
    act(w, Root(a, b, n)) is not Root.make(w(a), w(b), n) or is not a root
    the checking constructor accepts."""
    n = w.n
    misplaced = []
    for a in range(1, n + 1):
        for b in range(1 - n, 2 * n + 1):
            if (a - b) % n == 0:
                continue
            got = act(w, Root(a, b, n))
            try:
                ok = got == Root.make(w(a), w(b), n) == Root(got.i, got.j, got.n)
            except ValueError:
                ok = False
            if not ok:
                misplaced.append((a, b))
    return misplaced


class TestQuadMinimum:
    def test_identity_case1(self):
        res = quad_minimum(identity(3), 1, 2)
        assert res.case == 1
        assert res.minimum == identity(3)

    def test_translation_case2(self):
        # diag(t, t^-1): orders differ, sigma is trivial, so the minimum is
        # the left-reduced element s_1 w = (0, 3)
        res = quad_minimum(kappa_11(), 1, 2)
        assert res.case == 2
        assert res.minimum == AffinePermutation((0, 3))

    def test_inverse_translation_case2(self):
        res = quad_minimum(kappa_11().inverse(), 1, 2)
        assert res.case == 2
        assert res.minimum == AffinePermutation((0, 3))

    def test_chains_certified_by_bruhat(self):
        for w in bruhat_ball(3, 4):
            for a, b in ((1, 2), (1, 3), (2, 3)):
                res = quad_minimum(w, a, b)
                for chain in res.chains:
                    assert chain[0] == res.minimum
                    for x, y in zip(chain, chain[1:]):
                        assert x.length() < y.length()
                        assert bruhat_leq(x, y)
                if res.case == 2:
                    assert len({x.window for c in res.chains for x in c}) == 4
