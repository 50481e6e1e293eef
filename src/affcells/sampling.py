"""Seeded random generators for property sweeps.

Everything takes an explicit random.Random so runs are reproducible.
Group-valued samples are products of elementary matrices 1 + c t^s E_ij and
balanced diagonal pairs, which keeps determinants exactly one; a raw
"identity plus noise" draw would almost never have unit determinant.  Each
factor is applied to the running product in place, as a column operation
on its rows of {exponent: coefficient} dicts through `laurent._addmul`, so
a t-multiple is an exponent shift and no matrix product or `LaurentPoly`
arithmetic is formed; the rows are wrapped as a `LaurentMatrix` once, at
the end.  `random_conjugate_frame` and `random_parabolic` build the
inverse alongside, each inverse factor applied as a row operation, so no
sampler inverts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .affine import AffinePermutation
from .laurent import LaurentMatrix, LaurentPoly, _addmul, _matrix, _quo, _raw
from .partitions import Composition, Partition

__all__ = [
    "random_iwahori",
    "random_finite_borel",
    "random_sl",
    "random_nilradical",
    "random_parabolic",
    "random_window",
    "jordan_matrix",
    "random_conjugate_frame",
]

_SMALL = (-2, -1, 1, 2)
_UNITS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def _unit(n: int) -> list:
    """The identity as rows of term dicts."""
    return [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]


def _column_op(m: list, i: int, j: int, c, s: int = 0) -> None:
    """m <- m (1 + c t^s E_ij) on rows of term dicts: column j gains c t^s
    times column i.  For i = j it scales column j by 1 + c, so a balanced
    diagonal pair (u at i, 1/u at j) is two calls."""
    if not c:
        return
    for row in m:
        if row[i - 1]:
            row[j - 1] = _addmul(dict(row[j - 1]) if i == j else row[j - 1], c, s, row[i - 1])


def _row_op(m: list, i: int, j: int, c) -> None:
    """m <- (1 + c E_ij) m on rows of term dicts: row i gains c times row j.
    For i = j it scales row i by 1 + c."""
    if not c:
        return
    for k, d in enumerate(m[j - 1]):
        if d:
            m[i - 1][k] = _addmul(dict(d) if i == j else m[i - 1][k], c, 0, d)


def _wrap(m: list) -> LaurentMatrix:
    return _matrix([[_raw(d) for d in row] for row in m])


def random_iwahori(rng: random.Random, n: int) -> LaurentMatrix:
    """A random element of the standard Iwahori with determinant one.

    Product of constant upper elementaries, t-multiple lower elementaries,
    and balanced diagonal pairs.
    """
    if n == 1:
        return LaurentMatrix.identity(1)
    m = _unit(n)
    for _ in range(2 * n + 2):
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.randrange(1, n)
            j = rng.randrange(i + 1, n + 1)
            _column_op(m, i, j, rng.choice(_SMALL))
        elif kind == 1:
            j = rng.randrange(1, n)
            i = rng.randrange(j + 1, n + 1)
            _column_op(m, i, j, rng.choice(_SMALL), 1)
        else:
            i = rng.randrange(1, n + 1)
            j = rng.randrange(1, n + 1)
            if i != j:
                u = rng.choice(_UNITS)
                _column_op(m, i, i, u - 1)
                _column_op(m, j, j, _quo(1, u) - 1)
    return _wrap(m)


def random_finite_borel(rng: random.Random, n: int) -> LaurentMatrix:
    """A random constant upper-triangular matrix with determinant one."""
    m = _unit(n)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            _column_op(m, i, j, rng.choice(_SMALL + (0, 0)))
    for i in range(1, n):
        u = rng.choice(_UNITS)
        _column_op(m, i, i, u - 1)
        _column_op(m, i + 1, i + 1, _quo(1, u) - 1)
    return _wrap(m)


def _sl_factors(rng: random.Random, n: int):
    """The factors 1 + c E_ij of a `random_sl` draw, as (i, j, c), in order."""
    for _ in range(2 * n):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i != j:
            yield i, j, rng.choice(_SMALL)


def random_sl(rng: random.Random, n: int) -> LaurentMatrix:
    """A random constant matrix of determinant one (product of elementaries)."""
    if n == 1:
        return LaurentMatrix.identity(1)
    m = _unit(n)
    for i, j, c in _sl_factors(rng, n):
        _column_op(m, i, j, c)
    return _wrap(m)


def random_nilradical(rng: random.Random, lam: Composition) -> LaurentMatrix:
    """A random constant matrix carrying each standard block into earlier ones."""
    d = lam.d
    entries = {}
    for bi in range(1, lam.r + 1):
        for bj in range(bi + 1, lam.r + 1):
            for p in range(d[bi - 1] + 1, d[bi] + 1):
                for q in range(d[bj - 1] + 1, d[bj] + 1):
                    c = rng.choice(_SMALL + (0,))
                    if c:
                        entries[(p, q)] = LaurentPoly.constant(c)
    return LaurentMatrix.from_entries(lam.n, entries)


def random_parabolic(rng: random.Random, lam: Composition) -> tuple[LaurentMatrix, LaurentMatrix]:
    """A random constant block-upper-triangular matrix with determinant one,
    together with its exact inverse, built alongside as
    `random_conjugate_frame` builds one: each factor's inverse multiplies
    the inverse on the left, as a row operation."""
    n = lam.n
    block = lam.blocks
    m, inv = _unit(n), _unit(n)
    for _ in range(2 * n):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i != j and block[i - 1] <= block[j - 1]:
            c = rng.choice(_SMALL)
            _column_op(m, i, j, c)
            _row_op(inv, i, j, -c)
    for _ in range(2):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i != j:
            u = rng.choice(_UNITS)
            for k, v in ((i, u), (j, _quo(1, u))):
                _column_op(m, k, k, v - 1)
                _row_op(inv, k, k, _quo(1, v) - 1)
    return _wrap(m), _wrap(inv)


def random_window(rng: random.Random, n: int, spread: int = 3) -> AffinePermutation:
    """A random affine permutation with orders bounded by roughly `spread`."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    c = [rng.randint(-spread, spread) for _ in range(n - 1)]
    c.append(-sum(c))
    return AffinePermutation(tuple(sigma[i] - c[i] * n for i in range(n)))


def jordan_matrix(mu: Partition) -> LaurentMatrix:
    """The nilpotent in Jordan form with block sizes mu."""
    entries = {}
    start = 0
    for size in mu.parts:
        for k in range(1, size):
            entries[(start + k, start + k + 1)] = LaurentPoly.one()
        start += size
    return LaurentMatrix.from_entries(mu.n, entries)


def random_conjugate_frame(rng: random.Random, n: int) -> tuple[LaurentMatrix, LaurentMatrix]:
    """A random determinant-one frame together with its exact inverse.

    The frame is drawn as `random_sl` draws it, and the inverse is built
    alongside: each factor 1 + c E_ij multiplies the frame on the right, and
    its inverse 1 - c E_ij multiplies the inverse on the left, as a row
    operation, so no elimination is run."""
    g, ginv = _unit(n), _unit(n)
    if n > 1:
        for i, j, c in _sl_factors(rng, n):
            _column_op(g, i, j, c)
            _row_op(ginv, i, j, -c)
    return _wrap(g), _wrap(ginv)
