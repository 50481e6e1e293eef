"""Embeddings into affine flag varieties and Bruhat cell identification.

The standard periodic chain ... < L_{-1} < L_0 < L_1 < ... has
``L_i = span_{k[t]} { u_j : j <= i }`` where ``u_{qn+r} = t^{-q} e_r`` for
1 <= r <= n.  Its stabilizer is the standard Iwahori (matrices over k[t],
upper triangular mod t), so the relative position of (chain, M * chain)
identifies the double coset of M.  Concretely

    w(j) = min { i : M u_j  in  L_i + M Lambda_{j-1} }

extended periodically.  Membership questions reduce to exact Hermite-style
reduction in u-coordinates: every vector has a unique leading u-term (the
coordinate minimizing the t-order wins, and distinct coordinates give chain
indices in distinct residue classes mod n), and a triangular basis of a
module holds one generator per residue class.  Reducing M u_j against a
triangular basis of M Lambda_{j-1} strictly decreases the chain index at
each step and halts exactly at w(j).

The chain orientation is a convention; it is pinned by witness tests
(the monomial matrix of any w lands in cell w, and the certified products
b (1 - t^-1 Z) c land in the cell of varpi).
"""

from __future__ import annotations

from fractions import Fraction

from . import affine
from .affine import AffinePermutation
from .errors import (
    IdentityFailed,
    NotInNilradical,
    NotMaximalParabolic,
    NotNilpotent,
    NotUnimodular,
)
from .laurent import LaurentMatrix, LaurentPoly, det
from .lattices import AffineFlag, Lattice
from .partitions import Composition, vector_rank

__all__ = [
    "phi_point",
    "phi_map",
    "psi_map",
    "iwahori_cell",
    "parabolic_cell",
    "mv_flag",
    "beta",
]

_MAX_REDUCTION_STEPS = 200_000


# ---------------------------------------------------------------------------
# cell identification
# ---------------------------------------------------------------------------


def _lead(v: list[LaurentPoly], n: int):
    """Leading u-term of a vector: (chain index, coordinate, coefficient).

    The chain index of t^{-q} e_r is qn + r; for a general vector it is the
    maximum of r - n*ord(v_r) over nonzero coordinates, achieved at exactly
    one coordinate because the candidates differ mod n.
    """
    best = None
    for r0, p in enumerate(v):
        if p.is_zero():
            continue
        idx = (r0 + 1) - n * p.ord()
        if best is None or idx > best[0]:
            best = (idx, r0, p.trailing_coeff())
    return best


def _reduce(v: list[LaurentPoly], basis: dict, n: int):
    """Reduce v against a triangular basis (keyed by index residue).

    Returns (reduced vector, chain index) when stuck, or None when v reduces
    to zero.  Each step cancels the leading u-term using the unique basis
    vector in its residue class, when that vector's index is at least as
    large; the index strictly decreases at each step.  Against the basis of
    a genuine lattice this terminates for every Laurent vector: an infinite
    descent would converge t-adically to an element of the completed module,
    and a Laurent vector in the completion of a lattice already lies in it.
    """
    steps = 0
    while True:
        lead = _lead(v, n)
        if lead is None:
            return None
        idx, r0, coeff = lead
        entry = basis.get(idx % n)
        if entry is None or entry[0] < idx:
            return v, idx
        hidx, hcoeff, hvec = entry
        s = (hidx - idx) // n
        factor = coeff / hcoeff
        v = [a - b.shift(s).scale(factor) for a, b in zip(v, hvec)]
        steps += 1
        if steps > _MAX_REDUCTION_STEPS:
            raise IdentityFailed("reduction failed to terminate; not a unit matrix?")


def _triangular_basis(vectors: list, n: int) -> dict:
    """Triangularize a basis of a rank-n module: one generator per index
    residue, each of maximal index in its class.

    All operations are unimodular column operations, so the determinant of
    the family is preserved; the sum of leading indices is bounded below in
    terms of ord(det), which bounds the number of reduction steps.
    """
    basis: dict = {}
    pool = [list(v) for v in vectors]
    steps = 0
    while pool:
        v = pool.pop()
        while True:
            lead = _lead(v, n)
            if lead is None:
                raise IdentityFailed("basis vectors cannot reduce to zero")
            idx, r0, coeff = lead
            key = idx % n
            entry = basis.get(key)
            if entry is None:
                basis[key] = (idx, coeff, v)
                break
            hidx, hcoeff, hvec = entry
            if hidx >= idx:
                s = (hidx - idx) // n
                v = [a - b.shift(s).scale(coeff / hcoeff) for a, b in zip(v, hvec)]
            else:
                basis[key] = (idx, coeff, v)
                pool.append(hvec)
                break
            steps += 1
            if steps > _MAX_REDUCTION_STEPS:
                raise IdentityFailed("triangularization failed to terminate")
    return basis


def iwahori_cell(M: LaurentMatrix) -> AffinePermutation:
    """The unique w with M in (Iwahori) w (Iwahori).

    Requires det(M) to be a nonzero constant (order-zero unit); otherwise
    the columns do not span a chain of the right virtual dimensions.

    For each j, the module M Lambda_{j-1} has the basis
    {columns 1..j-1} + {t * columns j..n}; the chain index where column j
    gets stuck when reduced against it is w(j).
    """
    d = det(M)
    if not (d.is_monomial() and d.ord() == 0):
        raise NotUnimodular(f"det {d!r} must be a nonzero constant")
    n = M.n
    cols = [list(M.column(j)) for j in range(1, n + 1)]
    window = []
    for j in range(1, n + 1):
        gens = [list(c) for c in cols[: j - 1]]
        gens += [[p.shift(1) for p in c] for c in cols[j - 1 :]]
        basis = _triangular_basis(gens, n)
        reduced = _reduce(list(cols[j - 1]), basis, n)
        if reduced is None:
            raise IdentityFailed("column cannot lie in the previous span")
        _, idx = reduced
        window.append(idx)
    return AffinePermutation(tuple(window))


def parabolic_cell(M: LaurentMatrix, J) -> AffinePermutation:
    """Minimal representative of the Iwahori cell modulo the parabolic J."""
    return affine.min_coset_rep(iwahori_cell(M), J, affine.Side.RIGHT)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def _check_nilradical(X: LaurentMatrix, lam: Composition) -> None:
    if not X.is_constant():
        raise NotInNilradical("X must be constant")
    d = lam.d
    blocks = []
    for p in range(1, lam.n + 1):
        blocks.append(next(i for i in range(1, lam.r + 1) if d[i - 1] < p <= d[i]))
    for p in range(1, lam.n + 1):
        for q in range(1, lam.n + 1):
            if X.entry(p, q).coeff(0) and blocks[p - 1] >= blocks[q - 1]:
                raise NotInNilradical(
                    f"entry ({p},{q}) crosses blocks {blocks[p-1]} >= {blocks[q-1]}"
                )


def phi_point(g: LaurentMatrix, X: LaurentMatrix) -> LaurentMatrix:
    """The point g (1 - t^-1 X)."""
    return g * (LaurentMatrix.identity(g.n) - X.scale_t(-1))


def phi_map(g: LaurentMatrix, X: LaurentMatrix, lam: Composition):
    """Embed a cotangent point: (point, flag) with L_i the image of the
    standard step lattice under the point matrix.

    Preconditions: g constant with determinant 1; X constant carrying each
    standard block into the previous one.  The returned flag is validated.
    """
    n = lam.n
    if not g.is_constant():
        raise NotUnimodular("frame g must be constant")
    if det(g) != LaurentPoly.one():
        raise NotUnimodular("frame g must have determinant one")
    _check_nilradical(X, lam)
    point = phi_point(g, X)
    d = lam.d
    lattices = []
    for i in range(lam.r + 1):
        scale = LaurentMatrix.diagonal(
            [LaurentPoly.t(-1) if j < d[i] else LaurentPoly.one() for j in range(n)]
        )
        lattices.append(Lattice.from_basis(point * scale))
    flag = AffineFlag(lattices=tuple(lattices), shape=lam)
    flag.validate()
    return point, flag


def psi_map(X: LaurentMatrix):
    """Embed a nilpotent into the affine Grassmannian: (point, lattice)."""
    n = X.n
    if not X.is_constant():
        raise NotNilpotent("X must be constant")
    power = X
    for _ in range(n - 1):
        power = power * X
    if power != LaurentMatrix.zero(n):
        raise NotNilpotent("X^n != 0")
    point = LaurentMatrix.identity(n) - X.scale_t(-1)
    return point, Lattice.from_basis(point)


def mv_flag(X: LaurentMatrix, lam: Composition, frame: LaurentMatrix | None = None):
    """The convolution-style flag: L_i spanned by (1 - t^-1 X) V[t] and
    t^-1 F_i, where F_i is spanned by the first d_i frame columns.

    Requires X constant with X F_i inside F_{i-1}.  With the default frame
    (identity) this is the standard nilradical condition.
    """
    n = lam.n
    if frame is None:
        frame = LaurentMatrix.identity(n)
    if not (X.is_constant() and frame.is_constant()):
        raise NotInNilradical("mv_flag expects constant matrices")
    d = lam.d
    frame_cols = [
        [frame.entry(i, j).coeff(0) for i in range(1, n + 1)] for j in range(1, n + 1)
    ]
    xmat = [[X.entry(i, j).coeff(0) for j in range(1, n + 1)] for i in range(1, n + 1)]
    for i in range(1, lam.r + 1):
        prev = frame_cols[: d[i - 1]]
        for col in frame_cols[d[i - 1] : d[i]]:
            image = [sum((xmat[r][k] * col[k] for k in range(n)), Fraction(0)) for r in range(n)]
            if any(image) and (
                not prev or vector_rank(prev + [image]) != vector_rank(prev)
            ):
                raise NotInNilradical(f"X does not carry step {i} into step {i - 1}")
    point = LaurentMatrix.identity(n) - X.scale_t(-1)
    point_cols = [list(point.column(j)) for j in range(1, n + 1)]
    lattices = []
    for i in range(lam.r + 1):
        extra = [
            [LaurentPoly.monomial(-1, c) if c else LaurentPoly.zero() for c in col]
            for col in frame_cols[: d[i]]
        ]
        lattices.append(Lattice.from_columns(point_cols + extra, n))
    return tuple(lattices)


def beta(lattice_flag, lam: Composition) -> AffineFlag:
    """Replace the fixed top lattice t^-1 V[t] by t^-1 L_0; defined only for
    two-step shapes, where it lands in the affine flag variety."""
    if lam.r != 2:
        raise NotMaximalParabolic(f"beta needs a two-part composition, got {lam.parts}")
    l0, l1 = lattice_flag[0], lattice_flag[1]
    flag = AffineFlag(lattices=(l0, l1, l0.scaled(-1)), shape=lam)
    flag.validate()
    return flag
