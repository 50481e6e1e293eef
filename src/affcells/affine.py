"""The extended affine symmetric group of period n, in window notation.

An affine permutation is a bijection w of the integers with
``w(i + n) = w(i) + n`` and ``sum(w(i) - i for i in 1..n) = 0``.  It is
determined by its window ``(w(1), ..., w(n))``.  Equivalently it is a
monomial matrix over powers of t whose determinant has t-order zero; the
translation between the two pictures is ``w(i) = sigma(i) - c_i * n`` where
column i of the matrix holds ``t^{c_i}`` in row ``sigma(i)``.

The window is the canonical representation, checked once by the public
constructor (operations closed on valid windows skip it); matrices are views.
Composition ``u * v`` means "u after v" and matches the matrix product.
Length and descents are read off the window: the Coxeter length is the sum
over 1 <= i < j <= n of ``|floor((w(j) - w(i)) / n)|``, and s_i is a right
descent (w s_i < w) iff w(i) > w(i + 1), a left descent (s_i w < w) iff
w^-1(i) > w^-1(i + 1).

Roots are pairs (i, j) with i != j mod n, taken modulo the simultaneous
shift (i, j) ~ (i + kn, j + kn); the canonical representative has
1 <= i <= n, and the root is positive exactly when i < j.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import BadIndices, BadWindow, NotMonomialPermutation, PeriodMismatch
from .laurent import LaurentMatrix, LaurentPoly
from .ops import op

__all__ = [
    "AffinePermutation",
    "Root",
    "Side",
    "QuadMinimum",
    "identity",
    "simple_reflection",
    "reflection",
    "translation",
    "from_matrix",
    "bruhat_leq",
    "min_coset_rep",
    "min_double_coset_rep",
    "act_on_root",
    "quad_minimum",
    "bruhat_ball",
]


@dataclass(frozen=True)
class AffinePermutation:
    """An affine permutation stored by its window ``(w(1), ..., w(n))``, a
    tuple of ints; any sequence of ints (not bools) is stored as a tuple."""

    window: tuple[int, ...]

    def __post_init__(self):
        window = tuple(self.window)
        object.__setattr__(self, "window", window)
        n = len(window)
        if n == 0:
            raise BadWindow("empty window")
        if any(type(v) is not int for v in window):
            raise BadWindow(f"window entries must be integers: {window}")
        if len({v % n for v in window}) != n:
            raise BadWindow(f"window residues not distinct mod {n}: {window}")
        if sum(window) != n * (n + 1) // 2:
            raise BadWindow(f"window does not sum to 1+...+n: {window}")

    @classmethod
    def _perm(cls, window: tuple) -> "AffinePermutation":
        """Unchecked constructor, for a window made by a closed operation."""
        w = object.__new__(cls)
        object.__setattr__(w, "window", window)
        return w

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        """Value at any integer, via the periodic extension."""
        r = (i - 1) % len(self.window)
        return self.window[r] + (i - 1 - r)

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        """Composition "self after other"; agrees with the matrix product."""
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        win, n = self.window, len(self.window)
        if len(other.window) != n:
            raise PeriodMismatch(f"periods {n} and {other.n}")
        out = []
        for v in other.window:
            r = (v - 1) % n
            out.append(win[r] + (v - 1 - r))
        return AffinePermutation._perm(tuple(out))

    def inverse(self) -> "AffinePermutation":
        n = self.n
        out = [0] * n
        for j, wj in enumerate(self.window, start=1):
            r = (wj - 1) % n
            out[r] = j + (r + 1 - wj)
        return AffinePermutation._perm(tuple(out))

    def sigma_and_orders(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The pair (sigma, c) with w(i) = sigma(i) - c_i * n, sigma(i) in 1..n."""
        n = self.n
        sigma, c = [], []
        for i, wi in enumerate(self.window, start=1):
            s = (wi - 1) % n + 1
            sigma.append(s)
            c.append((s - wi) // n)
        return tuple(sigma), tuple(c)

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def is_finite(self) -> bool:
        """True when the window is a permutation of 1..n."""
        return all(1 <= v <= self.n for v in self.window)

    def to_matrix(self) -> LaurentMatrix:
        """The affine permutation matrix: t^{c_i} in position (sigma(i), i)."""
        sigma, c = self.sigma_and_orders()
        entries = {
            (sigma[i], i + 1): LaurentPoly.t(c[i]) for i in range(self.n)
        }
        return LaurentMatrix.from_entries(self.n, entries)

    def length(self) -> int:
        """Coxeter length off the window: the sum over 1 <= i < j <= n of
        |floor((w(j) - w(i)) / n)| (Bjorner-Brenti, Prop. 8.3.1)."""
        n = len(self.window)
        total = 0
        for wi, wj in combinations(self.window, 2):
            total += abs((wj - wi) // n)
        return total

    @op
    def length_oracle(self) -> int:
        """Brute-force inversion count over a provably sufficient window.

        Counts pairs (i, j) with 1 <= i <= n, i < j, w(i) > w(j).  Values of
        j beyond i + n*(spread+2), where spread = max |c_a - c_b|, cannot be
        inversions because w(j) grows by n with each period.
        """
        _, c = self.sigma_and_orders()
        spread = max(c) - min(c) if c else 0
        n = self.n
        count = 0
        for i in range(1, n + 1):
            wi = self(i)
            for j in range(i + 1, i + n * (spread + 2) + 1):
                if wi > self(j):
                    count += 1
        return count

    def right_descent(self, i: int) -> bool:
        """Whether w * s_i < w, for 0 <= i <= n-1."""
        return self(i) > self(i + 1)

    def left_descent(self, i: int) -> bool:
        """Whether s_i * w < w, for 0 <= i <= n-1: w^-1(i) > w^-1(i + 1),
        where w^-1(i) = a + 1 + i - w(a + 1) for w(a + 1) = i mod n."""
        w, n = self.window, len(self.window)
        res = [(v - i) % n for v in w]
        a, b = res.index(0), res.index(1 % n)
        return a - w[a] > b - w[b] + 1

    def __repr__(self):
        return f"AffinePermutation({self.window})"


def identity(n: int) -> AffinePermutation:
    if n < 1:
        raise BadWindow(f"identity of period {n}")
    return AffinePermutation._perm(tuple(range(1, n + 1)))


def simple_reflection(n: int, i: int) -> AffinePermutation:
    """The simple reflection s_i, 0 <= i <= n-1, of period n."""
    if n < 2 or not 0 <= i <= n - 1:
        raise BadIndices(f"simple reflection index {i} for period {n}")
    if i == 0:
        return AffinePermutation._perm(tuple([0] + list(range(2, n)) + [n + 1]))
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return AffinePermutation._perm(tuple(w))


@op
def reflection(n: int, a: int, b: int) -> AffinePermutation:
    """The finite reflection swapping a and b, for 1 <= a < b <= n."""
    if not 1 <= a < b <= n:
        raise BadIndices(f"reflection pair ({a},{b}) for period {n}")
    w = list(range(1, n + 1))
    w[a - 1], w[b - 1] = b, a
    return AffinePermutation._perm(tuple(w))


def translation(n: int, q: Sequence[int]) -> AffinePermutation:
    """The translation whose matrix is diag(t^{q_1}, ..., t^{q_n}); sum q = 0."""
    q = tuple(q)
    if len(q) != n or sum(q) != 0:
        raise ValueError("q must have length n and sum 0")
    return AffinePermutation(tuple(i - q[i - 1] * n for i in range(1, n + 1)))


@op
def from_matrix(M: LaurentMatrix) -> AffinePermutation:
    """Read an affine permutation off a monomial matrix with ord(det) = 0.

    The coefficient values are ignored (normalized to 1); only the shape,
    one monomial per row and column, and the t-orders matter.
    """
    n = M.n
    columns = [[] for _ in range(n)]
    for i, row in enumerate(M.rows, start=1):
        for hits, p in zip(columns, row):
            if p._terms:
                hits.append((i, p))
    window = [None] * n
    seen_rows = set()
    for j, hits in enumerate(columns, start=1):
        if len(hits) != 1:
            raise NotMonomialPermutation(f"column {j} has {len(hits)} nonzero entries")
        ((i, p),) = hits
        if not p.is_monomial():
            raise NotMonomialPermutation(f"entry ({i},{j}) is not a single term")
        if i in seen_rows:
            raise NotMonomialPermutation(f"row {i} hit twice")
        seen_rows.add(i)
        window[j - 1] = i - p.ord() * n
    try:
        return AffinePermutation(tuple(window))
    except ValueError as exc:
        raise NotMonomialPermutation(str(exc)) from exc


@op
def decompose_translation(w: AffinePermutation) -> tuple[AffinePermutation, tuple[int, ...]]:
    """Split w = sigma * tau_q with sigma finite and tau_q = diag(t^{q_i}).

    Returns (sigma, q); q is the vector of diagonal t-orders and sums to 0.
    """
    sigma, c = w.sigma_and_orders()
    return AffinePermutation(sigma), c


@dataclass(frozen=True)
class Root:
    """A real root (i, j), i != j mod n, canonicalized so 1 <= i <= n."""

    i: int
    j: int
    n: int

    def __post_init__(self):
        if (self.i - self.j) % self.n == 0:
            raise ValueError(f"({self.i},{self.j}) is not a root mod {self.n}")
        if not 1 <= self.i <= self.n:
            raise ValueError("root not canonical; use Root.make")

    @classmethod
    def make(cls, i: int, j: int, n: int) -> "Root":
        shift = -((i - 1) // n)
        return cls(i + shift * n, j + shift * n, n)

    @property
    def positive(self) -> bool:
        return self.i < self.j


@op
def act_on_root(w: AffinePermutation, alpha: Root) -> Root:
    """Apply the window to both coordinates and canonicalize."""
    if w.n != alpha.n:
        raise PeriodMismatch(f"periods {w.n} and {alpha.n}")
    return Root.make(w(alpha.i), w(alpha.j), w.n)


_BRUHAT_CACHE: dict = {}
_BRUHAT_CACHE_MAX = 1 << 16  # emptied when full, so long sweeps stay bounded


@op
def bruhat_leq(v: AffinePermutation, w: AffinePermutation) -> bool:
    """Bruhat order via the lifting property, memoized.

    If v = e, true.  Otherwise pick a left descent s of w; then
    v <= w iff min(v, sv) <= sw, where sv < v iff s is a left descent of v.
    """
    if v.n != w.n:
        raise PeriodMismatch(f"periods {v.n} and {w.n}")
    return _bruhat_leq(v, w, v.length(), w.length())


def _bruhat_leq(v, w, lv, lw) -> bool:
    if lv == 0:
        return True
    if lv > lw:
        return False
    if lv == lw:
        return v == w
    key = (v.window, w.window)
    cached = _BRUHAT_CACHE.get(key)
    if cached is not None:
        return cached
    i = next(i for i in range(v.n) if w.left_descent(i))
    s = simple_reflection(v.n, i)
    sw = s * w
    if v.left_descent(i):
        result = _bruhat_leq(s * v, sw, lv - 1, lw - 1)
    else:
        result = _bruhat_leq(v, sw, lv, lw - 1)
    if len(_BRUHAT_CACHE) >= _BRUHAT_CACHE_MAX:
        _BRUHAT_CACHE.clear()
    _BRUHAT_CACHE[key] = result
    return result


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@op
def min_coset_rep(
    w: AffinePermutation, J: Iterable[int], side: Side = Side.RIGHT
) -> AffinePermutation:
    """The unique minimal representative of w modulo the parabolic on `side`.

    RIGHT strips generators of J from the right (cosets w * W_J, the P-side
    of a cell B w P); LEFT strips from the left.  A generator s_j is
    stripped whenever j is a descent on that side, since w * s_j < w iff
    w(j) > w(j + 1) and s_j * w < w iff w^-1(j) > w^-1(j + 1); no length is
    computed.  J scans in increasing index order; the result does not
    depend on that choice.  A side that is not a `Side` raises TypeError.
    """
    if not isinstance(side, Side):
        raise TypeError(f"side must be a Side, not {side!r}")
    J = sorted(set(J))
    n = w.n
    if any(not 0 <= j <= n - 1 for j in J):
        raise BadIndices(f"parabolic subset {J} for period {n}")
    if side is Side.RIGHT:
        descent, strip = AffinePermutation.right_descent, operator.mul
    else:
        descent, strip = AffinePermutation.left_descent, lambda u, s: s * u
    current = w
    changed = True
    while changed:
        changed = False
        for j in J:
            if descent(current, j):
                current = strip(current, simple_reflection(n, j))
                changed = True
    return current


def min_double_coset_rep(w: AffinePermutation, J: Iterable[int]) -> AffinePermutation:
    """The unique minimal element of the double coset W_J w W_J.

    Alternates one-sided reductions until stable; each productive pass
    strictly shortens, so this terminates at the double-coset minimum.
    """
    J = frozenset(J)
    while True:
        reduced = min_coset_rep(min_coset_rep(w, J, Side.RIGHT), J, Side.LEFT)
        if reduced == w:
            return w
        w = reduced


@dataclass(frozen=True)
class QuadMinimum:
    """Outcome of the two-reflection minimum: the case split, the minimum,
    and the Bruhat chains that certify it."""

    case: int
    minimum: AffinePermutation
    chains: tuple[tuple[AffinePermutation, ...], ...]


@op
def quad_minimum(w: AffinePermutation, a: int, b: int) -> QuadMinimum:
    """Minimal element among {w, s_l w, w s_r, s_l w s_r} for s_r = s_(a,b).

    Writing the matrix of w as sigma * tau_q, set s_l = s_(sigma(a),sigma(b)).
    Case 1 (ord t_a = ord t_b): s_l w = w s_r, and the minimum of the pair is
    w exactly when sigma(a) < sigma(b).  Case 2 (orders differ): the four
    elements are distinct with a unique minimum u, and the chains
    u < s_l u < s_l u s_r and u < u s_r < s_l u s_r both hold.

    In case 2 the minimum depends on both comparisons.  With
    k = ord t_a - ord t_b:

    * right side: w(a,b) = (sigma(a), sigma(b)) + k delta is positive
      exactly when k > 0, so w < w s_r iff k > 0;
    * left side: w^{-1} applied to the positive root supported on
      {sigma(a), sigma(b)} gives (a, b) - k delta up to the sign of
      sigma(b) - sigma(a), so s_l w < w iff (k > 0) == (sigma(a) < sigma(b)).

    Combining: u = s_l w when k > 0 and sigma(a) < sigma(b); u = w when
    k > 0 and sigma(a) > sigma(b); u = w s_r when k < 0 and
    sigma(a) < sigma(b); u = s_l w s_r otherwise.  The exhaustive Bruhat
    sweeps in the test suite confirm every chain.
    """
    n = w.n
    if not 1 <= a < b <= n:
        raise BadIndices(f"pair ({a},{b}) for period {n}")
    sigma, c = w.sigma_and_orders()
    sa, sb = sigma[a - 1], sigma[b - 1]
    s_r = reflection(n, a, b)
    s_l = reflection(n, min(sa, sb), max(sa, sb))
    if c[a - 1] == c[b - 1]:
        other = s_l * w
        u = w if sa < sb else other
        top = other if sa < sb else w
        return QuadMinimum(1, u, ((u, top),))
    if c[a - 1] > c[b - 1]:
        u = s_l * w if sa < sb else w
    else:
        u = w * s_r if sa < sb else s_l * w * s_r
    su = s_l * u
    us = u * s_r
    sus = s_l * u * s_r
    return QuadMinimum(2, u, ((u, su, sus), (u, us, sus)))


def bruhat_ball(n: int, max_length: int) -> list[AffinePermutation]:
    """All elements of length <= max_length, by breadth-first search."""
    e = identity(n)
    gens = [simple_reflection(n, i) for i in range(n)] if n >= 2 else []
    seen = {e.window}
    layer = [e]
    out = [e]
    for _ in range(max_length):
        nxt = []
        for w in layer:
            for s in gens:
                ws = w * s
                if ws.window not in seen:
                    seen.add(ws.window)
                    nxt.append(ws)
        out.extend(nxt)
        layer = nxt
    return out
