"""Partitions, compositions, dominance order, and Jordan types.

A partition is a weakly decreasing tuple of positive integers with implicit
zero-extension.  A composition is any tuple of positive integers; its prefix
sums d_0 = 0 < d_1 < ... < d_r = n cut {1, ..., n} into consecutive blocks.

`nilpotent_powers` is the one routine that forms the powers of a constant
nilpotent, as sparse rows {column: c} read once off its t^0 terms; Jordan
types, `cells.psi_map`'s X^n = 0 check and the varpi inverse series run on
them.  Jordan types are exact ranks of those powers over the rationals.

Beside it, constant matrices are rows of exact scalars, an int wherever a
value is integral (as in `laurent`): `constant_rows` reads the t^0 rows of
a matrix (None when it is not constant) and `row_product` multiplies two.
One fraction-free (Bareiss) elimination on integer-scaled rows, `_echelon`,
gives both `vector_rank`, the one exact rank routine of the package, and
`scalar_det`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import NotNilpotent, SizeMismatch
from .laurent import LaurentMatrix, _as_scalar, _quo
from .ops import op

__all__ = [
    "Partition",
    "Composition",
    "conjugate",
    "dominance_leq",
    "jordan_type",
    "nilpotent_powers",
    "vector_rank",
    "constant_rows",
    "row_product",
    "scalar_det",
    "partitions_of",
    "compositions_of",
]


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"parts must weakly decrease: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based part with zero-extension."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __len__(self):
        return len(self.parts)


@dataclass(frozen=True)
class Composition:
    """A composition lambda of n, with block bounds d_i = lambda_1 + ... + lambda_i."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p <= 0 for p in self.parts):
            raise ValueError(f"composition parts must be positive: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def d(self) -> tuple[int, ...]:
        """Prefix sums (d_0, d_1, ..., d_r) with d_0 = 0 and d_r = n."""
        out = [0]
        for p in self.parts:
            out.append(out[-1] + p)
        return tuple(out)

    @property
    def blocks(self) -> tuple[int, ...]:
        """blocks[p - 1] is the block (1-based) holding position p."""
        return tuple(i for i, part in enumerate(self.parts, start=1) for _ in range(part))

    def row(self, i: int) -> range:
        """The i-th consecutive block of {1, ..., n}, 1-based."""
        d = self.d
        return range(d[i - 1] + 1, d[i] + 1)

    def sorted_partition(self) -> Partition:
        return Partition(tuple(sorted(self.parts, reverse=True)))

    def column_partition(self) -> Partition:
        """The conjugate of the decreasing rearrangement; column heights."""
        return conjugate(self.sorted_partition())


@op
def conjugate(mu: Partition) -> Partition:
    """Transpose of the Young diagram: entry i counts parts >= i."""
    if not mu.parts:
        return Partition(())
    return Partition(tuple(sum(1 for p in mu.parts if p >= i) for i in range(1, mu.parts[0] + 1)))


@op
def dominance_leq(mu: Partition, nu: Partition) -> bool:
    """Prefix-sum comparison; both partitions must have the same total."""
    if mu.n != nu.n:
        raise SizeMismatch(f"totals {mu.n} and {nu.n}")
    acc_mu = acc_nu = 0
    for i in range(1, max(len(mu), len(nu)) + 1):
        acc_mu += mu.part(i)
        acc_nu += nu.part(i)
        if acc_mu > acc_nu:
            return False
    return True


def _echelon(rows):
    """Fraction-free (Bareiss) forward elimination of rows of exact scalars:
    (rank, +-the last pivot, scale).

    All-zero rows are dropped; each other row is scaled to integers by the
    lcm of its denominators, and scale is the product of those lcms.  A
    column with no pivot is skipped, and each update divides exactly in the
    integers by the previous pivot (Sylvester's identity), so at full rank
    on a square matrix the last pivot is +-det times scale.  A row that is
    zero in the pivot column is left alone when the pivot equals the
    previous one.
    """
    a, scale = [], 1
    for row in rows:
        if any(row):
            s = math.lcm(*(c.denominator for c in row))
            a.append([c.numerator * (s // c.denominator) for c in row])
            scale *= s
    m = len(a)
    rank, sign, prev = 0, 1, 1
    for k in range(len(a[0]) if a else 0):
        for i in range(rank, m):
            if a[i][k]:
                break
        else:
            continue
        top = a[i]
        if i != rank:
            a[rank], a[i] = top, a[rank]
            sign = -sign
        piv = top[k]
        rank += 1
        for row in a[rank:]:
            f = row[k]
            if f or piv != prev:
                for j in range(k + 1, len(row)):
                    row[j] = (piv * row[j] - f * top[j]) // prev
        prev = piv
        if rank == m:
            break
    return rank, sign * prev, scale


def vector_rank(vectors) -> int:
    """Exact rank of a family of equal-length int/Fraction vectors."""
    return _echelon(vectors)[0]


def constant_rows(M: LaurentMatrix):
    """The t^0 coefficients of M as rows of exact scalars, or None when M is
    not constant."""
    if not M.is_constant():
        return None
    return [[p.coeff(0) for p in row] for row in M.rows]


def row_product(a, b) -> list:
    """The product of two square matrices given as rows of exact scalars."""
    cols = list(zip(*b))
    return [[_as_scalar(sum(x * y for x, y in zip(row, col) if x)) for col in cols]
            for row in a]


def scalar_det(rows):
    """Exact determinant of a square matrix given as rows of exact scalars."""
    rank, last, scale = _echelon(rows)
    return _quo(last, scale) if rank == len(rows) else 0


def nilpotent_powers(X: LaurentMatrix) -> list:
    """X, X^2, ... up to the first zero power, which is not listed, as
    sparse rows {column: c} of nonzero exact scalars (ints for an integer X).

    X's t^0 terms are read once, in the pass that checks every entry is
    constant; the powers are products of those rows.  X^k = 0 for some
    k <= n proves X^n = 0, so at most n - 1 products are formed.  Raises
    NotNilpotent when X is not constant or X^n != 0.
    """
    x = []
    for row in X.rows:
        r = {}
        for j, p in enumerate(row):
            if terms := p._terms:
                if len(terms) > 1 or 0 not in terms:
                    raise NotNilpotent("matrix is not constant")
                r[j] = terms[0]
        x.append(r)
    powers, power = [], x
    while any(power):
        powers.append(power)
        if len(powers) == len(x):
            raise NotNilpotent("X^n is not zero")
        product = []
        for row in power:
            acc = {}
            for m, c in row.items():
                for j, v in x[m].items():
                    acc[j] = acc.get(j, 0) + c * v
            product.append({j: v for j, v in acc.items() if v})
        power = product
    return powers


@op
def jordan_type(X: LaurentMatrix) -> Partition:
    """Jordan type of a constant nilpotent matrix, by ranks of powers.

    The conjugate partition has i-th entry dim ker X^i - dim ker X^{i-1},
    from the `vector_rank` of each power `nilpotent_powers` returns, which
    raises NotNilpotent when X is not constant or X^n != 0.
    """
    n = X.n
    ranks = [n, *(vector_rank([row.get(j, 0) for j in range(n)] for row in power)
                  for power in nilpotent_powers(X)), 0]
    diffs = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    cols = tuple(d for d in diffs if d > 0)
    if any(cols[i] < cols[i + 1] for i in range(len(cols) - 1)):
        raise NotNilpotent("kernel dimensions not monotone; not nilpotent")
    return conjugate(Partition(cols))


def partitions_of(n: int, _max: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first within each."""
    if n == 0:
        yield Partition(())
        return
    top = n if _max is None else min(n, _max)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + rest.parts)


def compositions_of(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, by choosing cut points."""
    if n == 0:
        return
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0,) + cuts + (n,)
            yield Composition(tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)))
