"""Lattices in V[t, t^-1] and the chain-index reduction engine behind them.

A lattice is a full-rank k[t]-submodule of V[t, t^-1] whose k[t, t^-1]-span
is everything; concretely, the span of n columns whose determinant is a
monomial c*t^k.

Vectors are compared through the standard periodic chain: ``t^{-q} e_r``
has chain index qn + r (1 <= r <= n), and the leading u-term of a vector
is its term of largest chain index.  Distinct coordinates give indices in
distinct residue classes mod n, so the leading term is unique.  A
triangular basis holds one generator per residue class, each of maximal
index in its class among the elements of the lattice.  Against it:

* membership: reduce the vector; it lies in the lattice iff it reaches 0;
* virtual dimension: dim(L / L & E) - dim(E / L & E) against the standard
  lattice E = V[t] is the sum of (h - r)/n over the leading indices h, with
  r in 1..n and r = h mod n; it equals minus the t-order of det(basis);
* equality: the same leading indices plus one containment.

A vector is one dict {chain index: int}, t^e e_r at key r - n*e: the lead is
the largest key.  Columns, read off the matrix rows, enter through `_flat`,
scaled to integers, and no vector leaves as a column: M * L is
`Lattice.from_basis` of M times a basis of L.  One reduction loop does all
of the above, on a private copy (a plain `dict` copy unless it shifts by
t^k), multiplying by an integer where it would divide by a leading
coefficient.  Triangularizing a family is that loop plus displacement;
`chain_walk` triangularizes t M once and then adds one column per step,
giving `cells` the chain M Lambda_0 < ... < M Lambda_n.  A basis entry
(chain index, leading coefficient, vector, offset k) stands for t^k times
the stored vector, so t^j moves only offsets (+j) and indices (-nj).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FlagInvariantError, IdentityFailed, NotContained
from .laurent import LaurentMatrix, LaurentPoly, _addmul, _integral, det
from .ops import op
from .partitions import Composition

__all__ = ["Lattice", "AffineFlag", "chain_walk", "vdim", "quotient_dim"]

_MAX_REDUCTION_STEPS = 200_000


def _flat(col, n: int) -> dict:
    """A Laurent column, scaled to integers by `_integral`, as {index: int}."""
    return {r - n * e: c for r, d in enumerate(_integral(col)[0], 1) for e, c in d.items()}


def _reduce(v: dict, k: int, basis: dict, n: int, track=None):
    """Reduce t^k v against a triangular basis (keyed by index residue).

    Returns None when it reduces to zero; otherwise the basis entry
    (chain index, leading coefficient, reduced t^k v, 0) where it got stuck.
    Each step cancels the leading term, of index idx and coefficient c, using
    the unique basis vector h in its residue class when h's index hidx is at
    least as large: v becomes a v - b t^s h, s = (hidx - idx)/n, where
    b/a = c/(h's leading coefficient) in lowest terms, read off their gcd,
    and a > 0; as h is t^hk times its stored vector, that vector's keys move
    by idx - hidx - n hk.
    The factor a keeps memberships and spans; every vector comes in through
    `_flat`, so no rational coefficient reaches the step.  The index strictly
    decreases at each step.  Against the basis of a genuine lattice this
    terminates for every Laurent vector: an infinite descent would converge
    t-adically to an element of the completed module, and a Laurent vector
    in the completion of a lattice already lies in it.  The loop edits one
    copy of v, made at entry, so no given or stored vector changes.

    With ``track = [r, P, lam]``, every step multiplies lam and the term
    dict P by a, and a step on the generator g of class r adds b at t^s into
    P: lam t^k v as given stays the current t^k v plus P g plus the others.
    """
    x = dict(v) if k == 0 else {e - n * k: c for e, c in v.items()}
    steps = 0
    while x:
        idx = max(x)
        coeff = x[idx]
        entry = basis.get(idx % n)
        if entry is None or entry[0] < idx:
            return idx, coeff, x, 0
        hidx, hcoeff, hvec, hk = entry
        g = math.gcd(coeff, hcoeff)
        a, b = hcoeff // g, coeff // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for e in x:
                x[e] *= a
            if track is not None:
                track[1] = {e: a * c for e, c in track[1].items()}
                track[2] *= a
        if track is not None and idx % n == track[0]:
            s = (hidx - idx) // n
            track[1][s] = track[1].get(s, 0) + b
        _addmul(x, -b, idx - hidx - n * hk, hvec)
        steps += 1
        if steps > _MAX_REDUCTION_STEPS:
            raise IdentityFailed("reduction failed to terminate; not a unit matrix?")


def _triangular_basis(vectors: list, n: int) -> dict:
    """Triangularize (flat vector, offset) pairs spanning a rank-n module:
    one generator per index residue, each of maximal index in its class.

    Callers pass vectors made by `_flat`, with integer coefficients.  Each is
    reduced against the basis so far and takes its residue class as the entry
    (index, lead, {index: int}, k); a generator it displaces goes back to the
    pool.  All operations are unimodular column operations, so the determinant
    of the family is preserved up to a nonzero scalar.  The loop ends because
    each displacement strictly raises the index held in one class, and in the
    span of a full-rank family the indices of each class are bounded above.
    """
    basis: dict = {}
    pool = list(vectors)
    while pool:
        entry = _reduce(*pool.pop(), basis, n)
        if entry is None:
            raise IdentityFailed("basis vectors cannot reduce to zero")
        displaced = basis.get(entry[0] % n)
        basis[entry[0] % n] = entry
        if displaced is not None:
            pool.append(displaced[2:])
    return basis


@dataclass(frozen=True, eq=False)
class Lattice:
    """A lattice stored as its triangular basis: index residue mod n ->
    (leading index, leading coefficient, {index: int} vector, offset k), the generator
    t^k * vector.  A basis given directly (`scaled`, `chain_walk`, `mv_flag`)
    must span a genuine lattice, as `from_columns` checks for outside input:
    `==` tests one containment, which a proper sublattice with the same indices passes.
    """

    n: int
    basis: dict

    @classmethod
    def from_columns(cls, cols: list, n: int) -> "Lattice":
        """Span of n Laurent columns of length n whose determinant is a monomial."""
        if len(cols) != n or any(len(c) != n for c in cols):
            raise ValueError(f"a lattice basis is {n} columns of length {n}")
        M = LaurentMatrix([[c[i] for c in cols] for i in range(n)])
        if not det(M).is_monomial():
            raise ValueError(
                "determinant is not a power of t; the span is not a lattice "
                "(its Laurent span is a proper submodule)"
            )
        return cls(n=n, basis=_triangular_basis([(_flat(c, n), 0) for c in zip(*M.rows)], n))

    @classmethod
    def from_basis(cls, M: LaurentMatrix) -> "Lattice":
        return cls.from_columns([M.column(j + 1) for j in range(M.n)], M.n)

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        return cls.from_basis(LaurentMatrix.identity(n))

    def scaled(self, k: int) -> "Lattice":
        """The lattice t^k * L, sharing L's stored vectors."""
        return Lattice(n=self.n, basis={
            r: (h - self.n * k, c, v, j + k) for r, (h, c, v, j) in self.basis.items()
        })

    def _indices(self) -> tuple[int, ...]:
        return tuple(sorted(e[0] for e in self.basis.values()))

    def contains(self, v, k: int = 0) -> bool:
        """Exact k[t]-membership of t^k times a column of n Laurent
        polynomials or exact scalars, or times a stored {index: int} vector."""
        if type(v) is not dict:
            v = [LaurentPoly._coerce(p) for p in v]
            if len(v) != self.n:
                raise ValueError(f"vector of length {len(v)} in a rank-{self.n} lattice")
            v = _flat(v, self.n)
        return _reduce(v, k, self.basis, self.n) is None

    def contains_lattice(self, other: "Lattice") -> bool:
        # A generator that self holds too (the same stored vector at the same
        # offset) needs no reduction; consecutive walked lattices share most.
        return all(self._holds(r, v, k) or self.contains(v, k)
                   for r, (_, _, v, k) in other.basis.items())

    def _holds(self, r: int, v: dict, k: int) -> bool:
        entry = self.basis.get(r)
        return entry is not None and entry[2] is v and entry[3] == k

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return (
            self.n == other.n
            and self._indices() == other._indices()
            and self.contains_lattice(other)
        )

    def __hash__(self):
        return hash((self.n, self._indices()))


def chain_walk(M: LaurentMatrix) -> tuple[list[int], list[Lattice]]:
    """For a unit matrix M and Lambda_j = span{e_1..e_j} + t span{e_j+1..e_n}:
    the chain index where column j gets stuck against M Lambda_{j-1} for
    j = 1..n, and the lattices M Lambda_0 < ... < M Lambda_n.

    t M (the columns read off the rows, each scaled to integers by `_flat`,
    at offset 1) is triangularized once.  Step j reduces column j to v, of
    index h + n over the generator g of its class; t v reduces to zero with
    lam t v = P g + multiples of the other generators, P(0) != 0.
    lam v - ((P - P(0))/t) g replaces g, which stays in the span since t
    times it is P(0) g plus multiples of the others.  (v itself spans a
    proper sublattice unless P is constant.)
    """
    n = M.n
    cols = [_flat(col, n) for col in zip(*M.rows)]
    basis = _triangular_basis([(c, 1) for c in cols], n)
    stuck, chain = [], [Lattice(n, dict(basis))]
    for col in cols:
        idx, coeff, v, _ = _reduce(col, 0, basis, n)  # never None: t M is nonsingular
        track = [idx % n, {}, 1]
        if _reduce(v, 1, basis, n, track) is not None:
            raise IdentityFailed("t times the reduced column left the previous span")
        r, p, lam = track
        _, _, g, k = basis[r]  # P tracks t^k g
        q = [(e, c) for e, c in p.items() if e > 0 and c]
        if q:
            v, coeff = {e: lam * c for e, c in v.items()}, coeff * lam
            for e, c in q:
                _addmul(v, -c, n * (1 - e - k), g)
        basis[r] = (idx, coeff, v, 0)
        stuck.append(idx)
        chain.append(Lattice(n, dict(basis)))
    return stuck, chain


@op
def vdim(L: Lattice) -> int:
    """Signed colength against the standard lattice: -ord(det basis).

    The leading index h = qn + r (1 <= r <= n) contributes q = (h - r)/n.
    """
    return sum((e[0] - 1) // L.n for e in L.basis.values())


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
        # Either containment decides equality of two genuine lattices with
        # the same indices; a walked L_r has long t-tails, which are cheaper
        # to reduce against L_0 than to reduce against.
        if self.lattices[0] != self.lattices[-1].scaled(1):
            raise FlagInvariantError("t L_r != L_0")
        if vdim(self.lattices[0]) != 0:
            raise FlagInvariantError("vdim(L_0) != 0")
        for i in range(1, lam.r + 1):
            step = quotient_dim(self.lattices[i], self.lattices[i - 1])
            if step != lam.parts[i - 1]:
                raise FlagInvariantError(
                    f"dim L_{i}/L_{i-1} = {step}, expected {lam.parts[i - 1]}"
                )
