"""Exact Laurent polynomials over the rationals, and dense square matrices.

Every coefficient is a `fractions.Fraction`; plain ints are coerced on the
way in.  No floating point appears anywhere: every operation is exact or
raises.

A Laurent polynomial is a sparse map ``{exponent: coefficient}`` with no zero
coefficients stored; the zero polynomial is the empty map.  ``ord`` of the
zero polynomial is the sentinel ``ORD_ZERO`` (positive infinity), never an
integer, so it can never be mistaken for a pivot order.

Matrices are square and immutable.  Entry accessors are 1-based, matching
the usual E_{i,j} notation for elementary matrices; the sparse constructor
``LaurentMatrix.from_entries(n, {(i, j): p})`` builds ``p * E_{i,j}`` sums.

>>> p = LaurentPoly.t() ** 2 - 2 * LaurentPoly.t(-1)   # t^2 - 2 t^-1
>>> p.ord(), p.degree()
(-1, 2)
>>> LaurentPoly.zero().ord()
inf
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import IdentityFailed, NotAUnit

__all__ = [
    "ORD_ZERO",
    "LaurentPoly",
    "LaurentMatrix",
    "det",
    "invert",
    "borel_membership",
    "BOREL_PLUS",
]

#: ord of the zero polynomial; compares greater than every integer.
ORD_ZERO = math.inf


def _as_scalar(c):
    """Coerce plain ints to Fraction; reject anything inexact."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class LaurentPoly:
    """A Laurent polynomial with exact coefficients, stored sparsely."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d = {}
        for e, c in items:
            c = _as_scalar(c)
            if c:
                d[int(e)] = d[int(e)] + c if int(e) in d else c
                if not d[int(e)]:
                    del d[int(e)]
        self._terms = d

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t(cls, exp: int = 1) -> "LaurentPoly":
        return cls({exp: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, c=1) -> "LaurentPoly":
        return cls({exp: c})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def ord(self):
        """Least exponent with nonzero coefficient; ORD_ZERO for the zero polynomial."""
        return min(self._terms) if self._terms else ORD_ZERO

    def degree(self):
        return max(self._terms) if self._terms else -ORD_ZERO

    def coeff(self, exp: int):
        return self._terms.get(exp, Fraction(0))

    def is_monomial(self) -> bool:
        """A single nonzero term c*t^k.  These are exactly the units of k[t,t^-1]."""
        return len(self._terms) == 1

    def is_polynomial(self) -> bool:
        """True when all exponents are >= 0, i.e. the value lies in k[t]."""
        return all(e >= 0 for e in self._terms)

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    def leading_coeff(self):
        """Coefficient of the highest power; 0 for the zero polynomial."""
        return self._terms[max(self._terms)] if self._terms else Fraction(0)

    def trailing_coeff(self):
        """Coefficient of the lowest power; 0 for the zero polynomial."""
        return self._terms[min(self._terms)] if self._terms else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        d = dict(self._terms)
        for e, c in other._terms.items():
            s = d.get(e)
            s = c if s is None else s + c
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        return _raw(d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return _raw({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        d = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = d.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    d[e] = s
                else:
                    del d[e]
        return _raw(d)

    __rmul__ = __mul__

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: use invert on a monomial instead")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c) -> "LaurentPoly":
        c = _as_scalar(c)
        if not c:
            return LaurentPoly.zero()
        return _raw({e: v * c for e, v in self._terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return _raw({e + k: c for e, c in self._terms.items()})

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly.constant(other)

    # -- protocol ------------------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts)


def _raw(d: dict) -> LaurentPoly:
    """Internal constructor from an already-normalized dict."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = d
    return p


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder in k[t].  Both arguments must lie in k[t], b != 0."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if not (a.is_polynomial() and b.is_polynomial()):
        raise ValueError("poly_divmod requires arguments in k[t]")
    q = LaurentPoly.zero()
    r = a
    db = b.degree()
    lb = b.leading_coeff()
    while not r.is_zero() and r.degree() >= db:
        step = LaurentPoly.monomial(r.degree() - db, r.leading_coeff() / lb)
        q = q + step
        r = r - step * b
    return q, r


def laurent_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient a/b in k[t,t^-1], or None when b does not divide a."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    if a.is_zero():
        return LaurentPoly.zero()
    oa, ob = a.ord(), b.ord()
    q, r = poly_divmod(a.shift(-oa), b.shift(-ob))
    if not r.is_zero():
        return None
    return q.shift(oa - ob)


class LaurentMatrix:
    """An immutable n x n matrix of Laurent polynomials."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[LaurentPoly]]):
        rows = tuple(tuple(self._entry(p) for p in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *args):
        raise AttributeError("LaurentMatrix is immutable")

    @staticmethod
    def _entry(p):
        if isinstance(p, LaurentPoly):
            return p
        return LaurentPoly.constant(p)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "LaurentMatrix":
        z = LaurentPoly.zero()
        return cls([[z] * n for _ in range(n)])

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[tuple[int, int], LaurentPoly]) -> "LaurentMatrix":
        """Build from a sparse {(i, j): poly} map with 1-based indices."""
        rows = [[LaurentPoly.zero()] * n for _ in range(n)]
        for (i, j), p in entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"index ({i},{j}) out of range for n={n}")
            rows[i - 1][j - 1] = rows[i - 1][j - 1] + cls._entry(p)
        return cls(rows)

    @classmethod
    def diagonal(cls, polys: Iterable[LaurentPoly]) -> "LaurentMatrix":
        ps = [cls._entry(p) for p in polys]
        n = len(ps)
        z = LaurentPoly.zero()
        return cls([[ps[i] if i == j else z for j in range(n)] for i in range(n)])

    # -- access ----------------------------------------------------------------

    def entry(self, i: int, j: int) -> LaurentPoly:
        """1-based entry, matching E_{i,j} indexing."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple[LaurentPoly, ...]:
        """1-based column as a tuple of polynomials."""
        return tuple(self.rows[i][j - 1] for i in range(self.n))

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        self._same_size(other)
        return LaurentMatrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __sub__(self, other):
        self._same_size(other)
        return LaurentMatrix(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __neg__(self):
        return LaurentMatrix([[-p for p in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (LaurentPoly, int, Fraction)):
            p = self._entry(other)
            return LaurentMatrix([[e * p for e in row] for row in self.rows])
        self._same_size(other)
        n = self.n
        cols = [[other.rows[k][j] for k in range(n)] for j in range(n)]
        out = []
        for i in range(n):
            row = self.rows[i]
            out_row = []
            for j in range(n):
                acc = LaurentPoly.zero()
                col = cols[j]
                for k in range(n):
                    if row[k] and col[k]:
                        acc = acc + row[k] * col[k]
                out_row.append(acc)
            out.append(out_row)
        return LaurentMatrix(out)

    def __rmul__(self, other):
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self * other
        return NotImplemented

    def scale_t(self, k: int) -> "LaurentMatrix":
        """Multiply every entry by t^k."""
        return LaurentMatrix([[p.shift(k) for p in row] for row in self.rows])

    def _same_size(self, other):
        if not isinstance(other, LaurentMatrix) or other.n != self.n:
            raise ValueError("matrix size mismatch")

    # -- predicates ---------------------------------------------------------------

    def is_constant(self) -> bool:
        return all(p.is_constant() for row in self.rows for p in row)

    def min_ord(self):
        """Least entry ord over the whole matrix (ORD_ZERO for the zero matrix)."""
        return min((p.ord() for row in self.rows for p in row), default=ORD_ZERO)

    # -- protocol --------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = ",\n ".join("[" + ", ".join(map(repr, row)) + "]" for row in self.rows)
        return f"LaurentMatrix(\n {body})"


def det(M: LaurentMatrix) -> LaurentPoly:
    """Exact determinant.

    Fraction-free Bareiss elimination over k[t] after clearing the global
    power of t, then re-scaling.  Every internal division is exact, so no
    rational-function intermediates appear.
    """
    n = M.n
    if n == 0:
        return LaurentPoly.one()
    shift = M.min_ord()
    if shift is ORD_ZERO:
        return LaurentPoly.zero()
    shift = min(0, int(shift))
    a = [[p.shift(-shift) for p in row] for row in M.rows]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if pivot_row is None:
                return LaurentPoly.zero()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q = laurent_exact_div(num, prev) if not prev == LaurentPoly.one() else num
                if q is None:
                    raise IdentityFailed("Bareiss division must be exact")
                a[i][j] = q
            a[i][k] = LaurentPoly.zero()
        prev = a[k][k]
    result = a[n - 1][n - 1].shift(shift * n)
    return result if sign == 1 else -result


def _minor(M: LaurentMatrix, i: int, j: int) -> LaurentMatrix:
    rows = [
        [M.rows[r][c] for c in range(M.n) if c != j]
        for r in range(M.n)
        if r != i
    ]
    return LaurentMatrix(rows)


def invert(M: LaurentMatrix) -> LaurentMatrix:
    """Exact inverse for matrices whose determinant is a unit c*t^k.

    Raises NotAUnit when det has two or more terms or is zero; in that case
    the inverse has entries outside k[t,t^-1].
    """
    d = det(M)
    if not d.is_monomial():
        raise NotAUnit(f"determinant {d!r} is not a monomial")
    exp = d.ord()
    coeff = d.trailing_coeff()
    n = M.n
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = det(_minor(M, i, j))
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof.scale(1 / coeff).shift(-exp)
    return LaurentMatrix(out)


#: Label for membership in the standard Iwahori subgroup.
BOREL_PLUS = "B+"


def borel_membership(M: LaurentMatrix) -> frozenset:
    """Classify M against the standard Iwahori subgroup.

    Returns frozenset({BOREL_PLUS}) when all entries lie in k[t], det is a
    nonzero constant, and M mod t is upper triangular; the empty set
    otherwise.
    """
    d = det(M)
    if (
        d.is_monomial()
        and d.ord() == 0
        and all(p.is_polynomial() for row in M.rows for p in row)
        and _upper_at_zero(M)
    ):
        return frozenset({BOREL_PLUS})
    return frozenset()


def _upper_at_zero(M: LaurentMatrix) -> bool:
    """Upper-triangularity of the t^0 coefficient matrix."""
    for i in range(M.n):
        for j in range(i):
            if M.rows[i][j].coeff(0):
                return False
    return True
