"""Embeddings into affine flag varieties and Bruhat cell identification.

The standard periodic chain ... < L_{-1} < L_0 < L_1 < ... has
``L_i = span_{k[t]} { u_j : j <= i }`` where ``u_{qn+r} = t^{-q} e_r`` for
1 <= r <= n.  Its stabilizer is the standard Iwahori (matrices over k[t],
upper triangular mod t), so the relative position of (chain, M * chain)
identifies the double coset of M.  Concretely

    w(j) = min { i : M u_j  in  L_i + M Lambda_{j-1} }

extended periodically.  The chain walk of `lattices` triangularizes
M Lambda_0 = t M V[t] once and adds one column per step; reducing M u_j
against M Lambda_{j-1} strictly decreases the chain index and halts exactly
at w(j).  `phi_map` reads its flags and `psi_map` its lattice off the walk
that gives their cell, so an embedded point is walked once; `iwahori_cell`
is for matrices from outside.

The chain orientation is a convention; it is pinned by witness tests
(the monomial matrix of any w lands in cell w, and the certified products
b (1 - t^-1 Z) c land in the cell of varpi).
"""

from __future__ import annotations

from . import affine
from .affine import AffinePermutation
from .errors import (
    NotInNilradical,
    NotMaximalParabolic,
    NotUnimodular,
    SizeMismatch,
)
from .laurent import LaurentMatrix, _addmul, _matrix, _raw, det
from .lattices import AffineFlag, Lattice, _flat, _triangular_basis, chain_walk
from .ops import op
from .partitions import (Composition, constant_rows, nilpotent_powers, row_product,
                         scalar_det, vector_rank)

__all__ = [
    "deformation",
    "phi_map",
    "psi_map",
    "iwahori_cell",
    "parabolic_cell",
    "mv_flag",
    "beta",
]


# ---------------------------------------------------------------------------
# cell identification
# ---------------------------------------------------------------------------


@op
def iwahori_cell(M: LaurentMatrix) -> AffinePermutation:
    """The unique w with M in (Iwahori) w (Iwahori).

    Requires det(M) to be a nonzero constant (order-zero unit); otherwise
    the columns do not span a chain of the right virtual dimensions.

    M Lambda_{j-1} is spanned by columns 1..j-1 and t times columns j..n;
    the chain walk reaches it from one triangularization of t M, and the
    chain index where column j gets stuck against it is w(j).
    """
    d = det(M)
    if not (d.is_monomial() and d.ord() == 0):
        raise NotUnimodular(f"det {d!r} must be a nonzero constant")
    return AffinePermutation(tuple(chain_walk(M)[0]))


@op
def parabolic_cell(M: LaurentMatrix, J) -> AffinePermutation:
    """Minimal representative of the Iwahori cell modulo the parabolic J.

    For a `phi_map` or `psi_map` point, take `min_coset_rep` of the cell it
    returned.
    """
    return affine.min_coset_rep(iwahori_cell(M), J, affine.Side.RIGHT)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def _check_nilradical(rows, lam: Composition) -> None:
    """X, given by its `constant_rows` (None: X is not constant), carries
    each standard block into earlier ones."""
    if rows is None:
        raise NotInNilradical("X must be constant")
    blocks = lam.blocks
    for p, row in enumerate(rows, 1):
        for q, c in enumerate(row, 1):
            if c and blocks[p - 1] >= blocks[q - 1]:
                raise NotInNilradical(
                    f"entry ({p},{q}) crosses blocks {blocks[p-1]} >= {blocks[q-1]}"
                )


def deformation(X: LaurentMatrix) -> LaurentMatrix:
    """The point 1 - t^-1 X, for any Laurent X, built one entry at a time.

    Only a nonzero entry of X goes through `_addmul`, into a fresh dict; an
    off-diagonal zero entry passes through as itself (entries are never
    edited in place) and a diagonal zero becomes a fresh constant one.
    """
    return _matrix([[_raw(_addmul({0: 1} if i == j else {}, -1, -1, p._terms)) if p._terms
                     else _raw({0: 1}) if i == j else p
                     for j, p in enumerate(row)] for i, row in enumerate(X.rows)])


@op
def phi_map(g: LaurentMatrix, X: LaurentMatrix, lam: Composition):
    """Embed a cotangent point: (point, flag, w) with L_i the image of the
    standard step lattice under the point matrix, t^-1 point Lambda_{d_i},
    and w its Iwahori cell, both read off one chain walk of the point.

    Preconditions: g constant with determinant 1; X constant carrying each
    standard block into the previous one.  Together they give det(point) = 1,
    so w needs no determinant.  g and X are read once as scalar rows: det(g)
    and the nilradical test run on them, and the point is g - t^-1 (g X),
    built entry by entry from one scalar product.  The returned flag is
    validated.
    """
    if not g.n == X.n == lam.n:
        raise SizeMismatch(f"frame {g.n}, X {X.n} and lambda {lam.n} must agree")
    grows = constant_rows(g)
    if grows is None:
        raise NotUnimodular("frame g must be constant")
    if scalar_det(grows) != 1:
        raise NotUnimodular("frame g must have determinant one")
    xrows = constant_rows(X)
    _check_nilradical(xrows, lam)
    point = _matrix([[_raw({e: c for e, c in ((0, a), (-1, -b)) if c}) for a, b in zip(*rows)]
                     for rows in zip(grows, row_product(grows, xrows))])
    stuck, chain = chain_walk(point)
    flag = AffineFlag(lattices=tuple(chain[d].scaled(-1) for d in lam.d), shape=lam)
    flag.validate()
    return point, flag, AffinePermutation(tuple(stuck))


@op
def psi_map(X: LaurentMatrix):
    """Embed a nilpotent into the affine Grassmannian: (point, lattice, w),
    point V[t] and its cell read off one chain walk (X^n = 0: det(point) = 1).

    X^n = 0 is checked by `nilpotent_powers`, on X's t^0 terms."""
    nilpotent_powers(X)
    point = deformation(X)
    stuck, chain = chain_walk(point)
    return point, chain[0].scaled(-1), AffinePermutation(tuple(stuck))


@op
def mv_flag(X: LaurentMatrix, lam: Composition, frame: LaurentMatrix | None = None):
    """The convolution-style flag: L_i spanned by (1 - t^-1 X) V[t] and
    t^-1 F_i, where F_i is spanned by the first d_i frame columns.

    Requires an invertible constant frame and X constant with X F_i inside
    F_{i-1}.  With the default frame (identity) this is the standard
    nilradical condition.
    """
    n = lam.n
    if frame is None:
        frame = LaurentMatrix.identity(n)
    xrows, frows = constant_rows(X), constant_rows(frame)
    if xrows is None or frows is None:
        raise NotInNilradical("mv_flag expects constant matrices")
    if not scalar_det(frows):
        raise NotUnimodular("frame must be invertible")
    # X F_i <= F_{i-1}: the images of the frame columns of block i add
    # nothing to the span of the columns before that block.
    fcols, xcols = list(zip(*frows)), list(zip(*row_product(xrows, frows)))
    for lo, hi in zip(lam.d, lam.d[1:]):
        if vector_rank(fcols[:lo] + xcols[lo:hi]) > lo:
            raise NotInNilradical(f"X carries frame columns {lo + 1}..{hi} outside columns 1..{lo}")
    # L_i has the basis {t^-1 f_k : k <= d_i} + {(1 - t^-1 X) f_k : k > d_i}
    # over the frame columns f_k.  Its span holds (1 - t^-1 X) f_k for k <= d_i,
    # as X f_k lies in F_{i-1}.  In frame coordinates it is upper triangular,
    # diagonal t^-1 (k <= d_i) and 1: its det det(frame) t^(-d_i) is a monomial.
    image = deformation(X) * frame
    low = [(_flat(frame.column(k), n), -1) for k in range(1, n + 1)]
    point = [(_flat(image.column(k), n), 0) for k in range(1, n + 1)]
    return tuple(Lattice(n, _triangular_basis(low[:d] + point[d:], n)) for d in lam.d)


def beta(lattice_flag, lam: Composition) -> AffineFlag:
    """Replace the fixed top lattice t^-1 V[t] by t^-1 L_0; defined only for
    two-step shapes, where it lands in the affine flag variety."""
    if lam.r != 2:
        raise NotMaximalParabolic(f"beta needs a two-part composition, got {lam.parts}")
    l0, l1 = lattice_flag[0], lattice_flag[1]
    flag = AffineFlag(lattices=(l0, l1, l0.scaled(-1)), shape=lam)
    flag.validate()
    return flag
