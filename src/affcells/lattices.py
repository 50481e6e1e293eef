"""Lattices in V[t, t^-1]: canonical bases, virtual dimension, and flags.

A lattice is a full-rank k[t]-submodule of V[t, t^-1] whose k[t, t^-1]-span
is everything; concretely, any generating family whose Hermite form has
monomial pivots.  Canonicalization:

* scale by a global power of t so all generators are polynomial,
* column Hermite normal form over k[t]: lower triangular, monic pivots,
  entries left of each pivot reduced modulo it,
* strip the largest common power of t back out.

Two lattices are equal iff their canonical (shift, basis) pairs coincide,
which makes flag and image comparisons exact dictionary lookups.

The virtual dimension of L is dim(L / L & E) - dim(E / L & E) against the
standard lattice E = V[t]; it equals minus the t-order of det(basis), since
both sides change by -n under scaling by t and agree on sublattices of E.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlagInvariantError, NotContained
from .laurent import LaurentMatrix, LaurentPoly, laurent_exact_div, poly_divmod
from .ops import op
from .partitions import Composition

__all__ = ["Lattice", "AffineFlag", "column_hermite", "vdim", "quotient_dim"]


def column_hermite(cols: list[list[LaurentPoly]], n: int) -> list[list[LaurentPoly]]:
    """Canonical lower-triangular column Hermite form of a rank-n family.

    Input columns must be polynomial (no negative exponents).  Returns the n
    pivot columns; raises ValueError if the family has rank below n.
    """
    work = [list(c) for c in cols if any(not p.is_zero() for p in c)]
    for c in work:
        if any(not p.is_polynomial() for p in c):
            raise ValueError("column_hermite requires polynomial entries")
    pivots: list[list[LaurentPoly]] = []
    for i in range(n):
        cand = [c for c in work if _first_nonzero(c) == i]
        rest = [c for c in work if _first_nonzero(c) not in (i, None)]
        while len(cand) > 1:
            cand.sort(key=lambda c: c[i].degree())
            base = cand[0]
            reduced = []
            for c in cand[1:]:
                q, _ = poly_divmod(c[i], base[i])
                newc = [a - q * b for a, b in zip(c, base)]
                fz = _first_nonzero(newc)
                if fz == i:
                    reduced.append(newc)
                elif fz is not None:
                    rest.append(newc)
            cand = [base] + reduced
        if not cand:
            raise ValueError(f"rank deficiency at row {i + 1}")
        pivot = cand[0]
        lead = pivot[i].leading_coeff()
        pivot = [p.scale(1 / lead) for p in pivot]
        pivots.append(pivot)
        work = rest
    # reduce entries left of each pivot
    for i in range(n):
        for j in range(i):
            q, _ = poly_divmod(pivots[j][i], pivots[i][i])
            if not q.is_zero():
                pivots[j] = [a - q * b for a, b in zip(pivots[j], pivots[i])]
    return pivots


def _first_nonzero(col) -> int | None:
    for i, p in enumerate(col):
        if not p.is_zero():
            return i
    return None


@dataclass(frozen=True)
class Lattice:
    """A lattice stored as t^shift times a canonical polynomial Hermite basis."""

    n: int
    shift: int
    hnf: LaurentMatrix

    @classmethod
    def from_columns(cls, cols: list, n: int) -> "Lattice":
        """Span of arbitrarily many Laurent columns; must have rank n."""
        cols = [list(c) for c in cols]
        m0 = min(
            (p.ord() for c in cols for p in c if not p.is_zero()),
            default=None,
        )
        if m0 is None:
            raise ValueError("no nonzero generators")
        m0 = int(min(m0, 0))
        scaled = [[p.shift(-m0) for p in c] for c in cols]
        pivots = column_hermite(scaled, n)
        strip = min(p.ord() for c in pivots for p in c if not p.is_zero())
        strip = int(strip)
        mat = LaurentMatrix(
            [[pivots[j][i].shift(-strip) for j in range(n)] for i in range(n)]
        )
        for i in range(n):
            if not mat.entry(i + 1, i + 1).is_monomial():
                raise ValueError(
                    "pivot is not a power of t; the span is not a lattice "
                    "(its Laurent span is a proper submodule)"
                )
        return cls(n=n, shift=m0 + strip, hnf=mat)

    @classmethod
    def from_basis(cls, M: LaurentMatrix) -> "Lattice":
        return cls.from_columns([list(M.column(j + 1)) for j in range(M.n)], M.n)

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        return cls.from_basis(LaurentMatrix.identity(n))

    def scaled(self, k: int) -> "Lattice":
        """The lattice t^k * L."""
        return Lattice(n=self.n, shift=self.shift + k, hnf=self.hnf)

    def transformed(self, M: LaurentMatrix) -> "Lattice":
        """The lattice M * L, for M with unit determinant."""
        return Lattice.from_basis(M * self.hnf).scaled(self.shift)

    def basis_columns(self) -> list[list[LaurentPoly]]:
        """Columns of an actual basis (shift applied)."""
        return [
            [self.hnf.entry(i + 1, j + 1).shift(self.shift) for i in range(self.n)]
            for j in range(self.n)
        ]

    def contains(self, v) -> bool:
        """Exact k[t]-membership of a Laurent column vector."""
        r = [p.shift(-self.shift) for p in v]
        for i in range(self.n):
            if r[i].is_zero():
                continue
            q = laurent_exact_div(r[i], self.hnf.entry(i + 1, i + 1))
            if q is None or not q.is_polynomial():
                return False
            for k in range(i, self.n):
                r[k] = r[k] - q * self.hnf.entry(k + 1, i + 1)
        return all(p.is_zero() for p in r)

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(c) for c in other.basis_columns())


@op
def vdim(L: Lattice) -> int:
    """Signed colength against the standard lattice: -ord(det basis)."""
    diag_ord = sum(L.hnf.entry(i + 1, i + 1).ord() for i in range(L.n))
    return -(L.n * L.shift + diag_ord)


@op
def quotient_dim(outer: Lattice, inner: Lattice) -> int:
    """dim_k(outer / inner) for inner contained in outer.

    Containment is verified by exact membership of inner's basis; the
    dimension is the t-order of the determinant of the change of basis,
    which here is vdim(outer) - vdim(inner).
    """
    if outer.n != inner.n:
        raise ValueError("lattice ranks differ")
    if not outer.contains_lattice(inner):
        raise NotContained("inner lattice is not contained in outer")
    return vdim(outer) - vdim(inner)


@dataclass(frozen=True)
class AffineFlag:
    """A chain L_0 <= L_1 <= ... <= L_r with t L_r = L_0 and step sizes lambda."""

    lattices: tuple[Lattice, ...]
    shape: Composition

    def validate(self) -> None:
        lam = self.shape
        if len(self.lattices) != lam.r + 1:
            raise FlagInvariantError(
                f"flag has {len(self.lattices)} lattices for {lam.r} steps"
            )
        if self.lattices[-1].scaled(1) != self.lattices[0]:
            raise FlagInvariantError("t L_r != L_0")
        if vdim(self.lattices[0]) != 0:
            raise FlagInvariantError("vdim(L_0) != 0")
        for i in range(1, lam.r + 1):
            step = quotient_dim(self.lattices[i], self.lattices[i - 1])
            if step != lam.parts[i - 1]:
                raise FlagInvariantError(
                    f"dim L_{i}/L_{i-1} = {step}, expected {lam.parts[i - 1]}"
                )
