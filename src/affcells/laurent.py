"""Exact Laurent polynomials over the rationals, and square matrices of them.

A coefficient is an `int` when it is integral and a `fractions.Fraction`
otherwise, on the way in and after every operation; the one coefficient
division, `_quo`, makes a Fraction only when a quotient is not integral.  No
floating point appears anywhere: every operation is exact or raises.

A Laurent polynomial is a sparse map ``{exponent: coefficient}`` with no zero
coefficients stored; the zero polynomial is the empty map.  ``ord`` of the
zero polynomial is the sentinel ``ORD_ZERO`` (positive infinity), never an
integer, so it can never be mistaken for a pivot order.

Matrices are square and immutable.  Entry accessors are 1-based, matching
the usual E_{i,j} notation for elementary matrices; the sparse constructor
``LaurentMatrix.from_entries(n, {(i, j): p})`` builds ``p * E_{i,j}`` sums.
Outside input is coerced once: by `LaurentMatrix(rows)`, or entry by entry
in `from_entries` and `diagonal`; `_matrix` builds the rest from immutable,
shared `LaurentPoly` entries.  Every entry is stored, but the loops skip
structural zeros: the product visits only the nonzero entries of each row
(Gustavson order) and builds only the output entries they reach, the others
sharing one zero; `+`, `-` and the scalar product pass zeros through.
`det` and `invert` scale each row to integers with `_integral`, which gives
plain term dicts, run the same fraction-free (Bareiss) elimination step on
those dict rows, and wrap the result once: `det` steps on the rows below
each pivot, `invert` on every other row of [M | I].  Z[t,t^-1] is an
integral domain, so each Bareiss division is exact there (Sylvester's
identity).  A division by a monomial u t^s happens inside the update, as an
exponent shift with u = +-1 folded into the signs and any other u dividing
the fresh update's integers in place, checked exact; only a divisor of two
or more terms goes through `laurent_exact_div`.  Each step pivots completely,
on the fewest-term entry of the whole remaining block (swapping a column as
well as a row), so later divisors are mostly monomials.  One loop updates
the rows of every step.  A step whose pivot equals the previous one skips
the rows that are zero in the pivot column, which it would leave as they
are; when that pivot is +-t^s, piv/prev = 1, so the same loop adds to a copy
of each old entry and visits only the columns where the pivot row is
nonzero, and the sparse unipotent matrices of the certificate check cost
little more than their nonzero entries.

>>> p = LaurentPoly.t(2) - 2 * LaurentPoly.t(-1)   # t^2 - 2 t^-1
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
from .ops import op

__all__ = [
    "ORD_ZERO",
    "LaurentPoly",
    "LaurentMatrix",
    "det",
    "invert",
    "borel_membership",
]

#: ord of the zero polynomial; compares greater than every integer.
ORD_ZERO = math.inf


def _as_scalar(c):
    """An exact coefficient: an int when integral, else the Fraction;
    anything inexact is rejected."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def _as_exp(e) -> int:
    """An exponent: an int; anything else (a float, a Fraction) is rejected."""
    if isinstance(e, int):
        return int(e)
    raise TypeError(f"not an integer exponent: {e!r}")


def _quo(a, b):
    """The exact quotient of two coefficients: a // b when b divides a,
    else Fraction(a, b) (an int again when that is integral).  The one
    division that may leave the integers; a division known to be exact on
    ints (the Bareiss updates, `partitions._echelon`) uses // or divmod."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _addmul(d: dict, c, s: int, b: dict) -> dict:
    """d += c * t^s * b in place, for a coefficient c != 0, in one pass over b.

    The one coefficient kernel: `+`, `-`, `*`, the Bareiss update and the
    lattice reduction step are all built from it.  Cancelled terms are
    deleted, so d stays normalized.
    """
    get = d.get
    for e, v in b.items():
        e += s
        old = get(e)
        v = c * v if old is None else old + c * v
        if type(v) is not int and v.denominator == 1:
            v = v.numerator
        if v:
            d[e] = v
        else:
            del d[e]
    return d


def _integral(polys) -> tuple[list, int]:
    """(the term dicts of polys times s, s) for s the lcm of their
    coefficient denominators, so every coefficient is an int.  s is a
    multiple of each, so a Fraction c scales to c.numerator * (s // c.denominator).
    With s = 1 the dicts are the polynomials' own: callers read them and
    never edit one in place."""
    s = 1
    for p in polys:
        for c in p._terms.values():
            if type(c) is not int:
                s = math.lcm(s, c.denominator)
    if s == 1:
        return [p._terms for p in polys], 1
    return [{e: c * s if type(c) is int else c.numerator * (s // c.denominator)
             for e, c in p._terms.items()} for p in polys], s


def _shift_div(d: dict, s: int, u) -> dict:
    """The term dict d divided by the monomial u t^s; d itself when that is 1."""
    if s == 0 and u == 1:
        return d
    return {e - s: _quo(c, u) for e, c in d.items()}


class LaurentPoly:
    """A Laurent polynomial with exact coefficients, stored sparsely."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        """From an {exponent: coefficient} dict; zero coefficients are dropped."""
        d = {}
        for e, c in terms.items():
            e = _as_exp(e)
            c = _as_scalar(d.pop(e, 0) + _as_scalar(c))
            if c:
                d[e] = c
        self._terms = d

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _raw({0: 1})

    @classmethod
    def t(cls, exp: int = 1) -> "LaurentPoly":
        if type(exp) is not int:
            exp = _as_exp(exp)
        return _raw({exp: 1})

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls.monomial(0, c)

    @classmethod
    def monomial(cls, exp: int, c=1) -> "LaurentPoly":
        c = _as_scalar(c)
        if type(exp) is not int:
            exp = _as_exp(exp)
        return _raw({exp: c} if c else {})

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
        return self._terms.get(exp, 0)

    def is_monomial(self) -> bool:
        """A single nonzero term c*t^k.  These are exactly the units of k[t,t^-1]."""
        return len(self._terms) == 1

    def is_polynomial(self) -> bool:
        """True when all exponents are >= 0, i.e. the value lies in k[t]."""
        return all(e >= 0 for e in self._terms)

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return _raw(_addmul(dict(self._terms), 1, 0, self._coerce(other)._terms))

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return _raw(_addmul(dict(self._terms), -1, 0, self._coerce(other)._terms))

    def __neg__(self):
        return _raw({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = self._coerce(other)._terms
        d = {}
        for e, c in self._terms.items():
            _addmul(d, c, e, other)
        return _raw(d)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c) -> "LaurentPoly":
        c = _as_scalar(c)
        return _raw(_addmul({}, c, 0, self._terms) if c else {})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if type(k) is not int:
            k = _as_exp(k)
        return _raw({e + k: c for e, c in self._terms.items()})

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly.monomial(0, other)

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
        # A constant equals its coefficient (see __eq__), so it hashes like it.
        if self.is_constant():
            return hash(self.coeff(0))
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


#: LaurentPoly arithmetic returns NotImplemented for any other operand.
_OPERANDS = (LaurentPoly, int, Fraction)


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
    q, r = {}, dict(a._terms)
    db = b.degree()
    lb = b._terms[db]
    while r and (dr := max(r)) >= db:
        c = _quo(r[dr], lb)
        q[dr - db] = c
        _addmul(r, -c, dr - db, b._terms)
    return _raw(q), _raw(r)


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

    _entry = staticmethod(LaurentPoly._coerce)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls.diagonal([LaurentPoly.one()] * n)

    @classmethod
    def zero(cls, n: int) -> "LaurentMatrix":
        return _matrix([[LaurentPoly.zero()] * n for _ in range(n)])

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[tuple[int, int], LaurentPoly]) -> "LaurentMatrix":
        """Build from a sparse {(i, j): poly} map with 1-based indices."""
        rows = [[LaurentPoly.zero()] * n for _ in range(n)]
        for (i, j), p in entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"index ({i},{j}) out of range for n={n}")
            rows[i - 1][j - 1] = cls._entry(p)
        return _matrix(rows)

    @classmethod
    def diagonal(cls, polys: Iterable[LaurentPoly]) -> "LaurentMatrix":
        ps = [cls._entry(p) for p in polys]
        z = LaurentPoly.zero()
        return _matrix([[p if i == j else z for j in range(len(ps))] for i, p in enumerate(ps)])

    # -- access ----------------------------------------------------------------

    def entry(self, i: int, j: int) -> LaurentPoly:
        """1-based entry, matching E_{i,j} indexing."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple[LaurentPoly, ...]:
        """1-based column as a tuple of polynomials."""
        return tuple(self.rows[i][j - 1] for i in range(self.n))

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        self._same_size(other)
        return _matrix([[(p + q if q._terms else p) if p._terms else q for p, q in zip(*rows)]
                        for rows in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        self._same_size(other)
        return _matrix([[(p - q if q._terms else p) if p._terms else -q for p, q in zip(*rows)]
                        for rows in zip(self.rows, other.rows)])

    def __mul__(self, other):
        """The matrix product, or the product with a scalar or Laurent polynomial.

        Row i of A*B is the sum of a_ik * (row k of B) over the nonzero a_ik
        (Gustavson order): only the nonzero entries of each row of B are
        visited, each output entry they reach accumulates in one dict, and
        the entries no term reaches share one zero.  Anything that is not a
        matrix goes through the scalar path, p * entry for each nonzero
        entry (one `_addmul` per entry when p is a monomial), which rejects
        inexact scalars with a TypeError and leaves zero entries as they are.
        """
        if not isinstance(other, LaurentMatrix):
            p = self._entry(other)
            return _matrix([[p * e if e._terms else e for e in row] for row in self.rows])
        self._same_size(other)
        brows = [[(j, q._terms) for j, q in enumerate(row) if q._terms] for row in other.rows]
        zero = LaurentPoly.zero()
        out = []
        for row in self.rows:
            acc = {}
            for p, brow in zip(row, brows):
                for e, c in p._terms.items():
                    for j, y in brow:
                        d = acc.get(j)
                        if d is None:
                            d = acc[j] = {}
                        _addmul(d, c, e, y)
            out_row = [zero] * self.n
            for j, d in acc.items():
                out_row[j] = _raw(d)
            out.append(out_row)
        return _matrix(out)

    __rmul__ = __mul__

    def _same_size(self, other):
        if other.n != self.n:
            raise ValueError("matrix size mismatch")

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


def _matrix(rows) -> LaurentMatrix:
    """Internal constructor from square rows of LaurentPoly entries: the
    matrix analogue of `_raw`, with no re-coercion."""
    m = LaurentMatrix.__new__(LaurentMatrix)
    object.__setattr__(m, "n", len(rows))
    object.__setattr__(m, "rows", tuple(map(tuple, rows)))
    return m


def _bareiss_step(a: list, k: int, rows, prev: dict, order: list) -> int:
    """One fraction-free elimination step at pivot (k, k), in place, on rows
    of integer term dicts.

    The pivot is the fewest-term entry of the block of rows and columns
    k..n-1, n = len(a): the first monomial in row order from (k, k), else
    the first entry of fewest terms, so the next step mostly divides by a
    monomial and a unipotent input, or a triangular one with a monomial
    diagonal, pivots on its diagonal.  Its row is swapped into row k and its
    column, in every row and in `order`, into column k; each row and column
    of the block was transformed alike, so this is Bareiss on a permuted
    input.  Then sets a_ij = (piv*a_ij - a_ik*a_kj) / prev for i in `rows`,
    j > k, a division exact by Sylvester's identity (columns <= k are not
    read again).  A monomial prev = u t^s divides inside the update: the
    factors' exponents move by -s, u = +-1 folds into their signs, and any
    other u divides each coefficient of the fresh update dict in place, where
    a remainder raises IdentityFailed; only a prev of two or more terms goes
    through `laurent_exact_div`.  One loop over `rows` does every update.
    When piv == prev, a row with a_ik = 0 would come out unchanged and is
    skipped.  When moreover prev = +-t^s (`same`), the update is
    a_ij - a_ik * a_kj / prev: `piv` is empty, the loop visits only the
    columns where the pivot row is nonzero, and each entry it changes starts
    from a copy of a_ij, so every other entry keeps its dict and a lower
    unitriangular input updates nothing.  Otherwise each entry starts from
    {} and every column right of the pivot is visited.  Returns the sign of
    the two swaps, or 0 if the block is zero.
    """
    n = len(a)
    r = col = None
    fewest = math.inf
    for i in range(k, n):
        row = a[i]
        for j in range(k, n):
            m = len(row[j])
            if 0 < m < fewest:
                r, col, fewest = i, j, m
                if m == 1:
                    break
        if fewest == 1:
            break
    if r is None:
        return 0
    a[k], a[r] = a[r], a[k]
    if col != k:
        for row in a:
            row[k], row[col] = row[col], row[k]
        order[k], order[col] = order[col], order[k]
    top = a[k]
    keep = top[k] == prev
    long = len(prev) > 1
    ((s, u),) = ((0, 1),) if long else prev.items()
    sign, u = (u, 1) if u in (1, -1) else (1, u)
    same = keep and u == 1 and not long
    piv = [] if same else [(e - s, sign * c) for e, c in top[k].items()]
    cols = [j for j in range(k + 1, len(top)) if top[j] or not same]
    for i in rows:
        row = a[i]
        f = row[k]
        if keep and not f:
            continue
        f = [(e - s, -sign * c) for e, c in f.items()]
        for j in cols:
            x, y = row[j], top[j]
            if not (x or (f and y)):
                continue
            d = dict(x) if same else {}
            for e, c in piv:
                _addmul(d, c, e, x)
            for e, c in f:
                _addmul(d, c, e, y)
            if u != 1:
                for e, c in d.items():
                    d[e], c = divmod(c, u)
                    if c:
                        raise IdentityFailed("Bareiss division must be exact")
            if long:
                q = laurent_exact_div(_raw(d), _raw(prev))
                if q is None:
                    raise IdentityFailed("Bareiss division must be exact")
                d = q._terms
            row[j] = d
    return (1 if r == k else -1) * (1 if col == k else -1)


def _bareiss(rows, n: int, others: bool) -> tuple[list, list, dict, int]:
    """The n Bareiss steps on rows scaled to integers, each on the rows below
    its pivot or with `others` on every other row: (dict rows, column order,
    last pivot prev, c) with prev = c det of the first n columns, c = 0 when
    they are singular."""
    scaled = [_integral(row) for row in rows]
    a, c = [row for row, _ in scaled], math.prod(s for _, s in scaled)
    order, prev = list(range(n)), {0: 1}
    for k in range(n):
        c *= _bareiss_step(a, k, [i for i in range(n) if i != k] if others else range(k + 1, n),
                           prev, order)
        if not c:
            break
        prev = a[k][k]
    return a, order, prev, c


@op
def det(M: LaurentMatrix) -> LaurentPoly:
    """Exact determinant.

    Fraction-free Bareiss elimination on the rows scaled to integers, below
    each pivot; the last pivot is +-det times the product of the row scales.
    Every internal division is exact in Z[t,t^-1].
    """
    _, _, prev, c = _bareiss(M.rows, M.n, False)
    return _raw(_shift_div(prev, 0, c)) if c else LaurentPoly.zero()


@op
def invert(M: LaurentMatrix) -> LaurentMatrix:
    """Exact inverse for matrices whose determinant is a unit c*t^k.

    One fraction-free Gauss-Jordan pass over D [M | I], D the diagonal of row
    scales to integers: step k updates every row but the pivot row.  Its
    column swaps permute M to M P, so at the end the left block is d*I and
    the right block d*(D M P)^-1 D = d*P^-1 M^-1, with d the last pivot,
    +-det(D M): row k of it, divided by d, is row order[k] of M^-1.

    Raises NotAUnit when det has two or more terms or is zero; in that case
    the inverse has entries outside k[t,t^-1].
    """
    n = M.n
    a, order, prev, c = _bareiss([row + unit for row, unit in
                                  zip(M.rows, LaurentMatrix.identity(n).rows)], n, True)
    if not c:
        raise NotAUnit("determinant 0 is not a monomial")
    if len(prev) != 1:
        raise NotAUnit(f"determinant {_raw(_shift_div(prev, 0, c))!r} is not a monomial")
    ((s, u),) = prev.items()
    out = [None] * n
    for i, row in zip(order, a):
        out[i] = [_raw(_shift_div(d, s, u)) for d in row[n:]]
    return _matrix(out)


@op
def borel_membership(M: LaurentMatrix) -> bool:
    """Membership in the standard Iwahori subgroup: all entries lie in k[t],
    M mod t is upper triangular, and det is a nonzero constant.

    The entries are checked first, in one pass over their term dicts (no
    negative exponent anywhere, no t^0 term below the diagonal), so only a
    matrix that passes them pays for the det.
    """
    for i, row in enumerate(M.rows):
        for j, p in enumerate(row):
            if p._terms and min(p._terms) < (1 if j < i else 0):
                return False
    d = det(M)._terms
    return len(d) == 1 and 0 in d
