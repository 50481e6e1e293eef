"""Named elements attached to a composition, as executable constructions.

Everything here is a finite, exactly checkable computation:

* ``kappa_bundle``: the dominant-cell element kappa built from the tableau
  colorings, together with its translation part tau_q and finite part sigma,
  tied together by kappa = tau_q * sigma and by tau_q being the minimal
  coset representative of kappa modulo the finite Weyl group.
* ``richardson_element``: the block nilpotent Z whose orbit is dense in the
  nilradical; it shifts each tableau column down by one.
* ``varpi_witness``: explicit matrices b, c in the standard Iwahori with
  b (1 - t^-1 Z) c equal to a monomial lift of the cell element varpi.
  The corner column of c uses the index that makes the identity hold
  exactly.  The witness carries Z, the point 1 - t^-1 Z and the product
  bz = b (1 - t^-1 Z), each formed once, and ``broken_corner_witness(wit)``
  checks a deliberately wrong variant of c against that bz and the lift, as
  a negative control.
* ``decompose_varpi(bundle)``: finite w_g and block-preserving w_p with
  varpi = w_g * kappa * w_p, exactly, for the kappa of the bundle; varpi is
  read off the bundle's tableau, from the lift that ``varpi_witness``
  certifies.
* ``check_kappa(bundle)``: minimality in its coset, left stability under the
  finite simple reflections, and the closed-form length with its correction
  term.
* ``divisor_data`` and ``divisor_witnesses(data, a)``: the codimension-one
  data: the reflection index k = n - d_i, the root gamma spanning the
  conormal directions, the antidiagonal element v_k, and the
  diagonal/elementary matrices that reduce a conormal point to the monomial
  matrix of the minimal representative of v_k.

kappa, sigma, w_g, w_p and v_k are built as windows, the canonical form in
``affine``; Laurent matrices appear only in the stated matrix identities: b,
c, Z, the varpi lift, finite lifts and the divisor witnesses.  b, c, Z and
the lift are written as one normalized term dict per entry (``_sparse``)
and wrapped once.

Everything is derived once from a composition: ``kappa_bundle(lam)``,
``varpi_witness(lam)`` and ``divisor_data(lam, i)`` build from lambda, and the
functions that extend one of them take it instead of rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import affine
from .affine import AffinePermutation, Root, Side
from .cells import deformation
from .errors import BadDivisorIndex, IdentityFailed
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    _addmul,
    _as_scalar,
    _matrix,
    _quo,
    _raw,
    borel_membership,
    det,
)
from .ops import op
from .partitions import Composition
from .tableau import Tableau, build

__all__ = [
    "KappaBundle",
    "VarpiWitness",
    "KappaReport",
    "DivisorBundle",
    "DivisorWitnesses",
    "dim_g_mod_p",
    "parabolic_subset",
    "finite_subset",
    "kappa_bundle",
    "richardson_element",
    "varpi_witness",
    "decompose_varpi",
    "check_kappa",
    "conormal_directions",
    "longest_min_rep",
    "divisor_data",
    "divisor_witnesses",
    "lift_finite",
]


def dim_g_mod_p(lam: Composition) -> int:
    """dim G/P = (n^2 - sum lambda_i^2) / 2 for the block-parabolic of shape lambda."""
    n = lam.n
    return (n * n - sum(p * p for p in lam.parts)) // 2


def parabolic_subset(lam: Composition) -> frozenset[int]:
    """Simple-root indices of the finite parabolic: all of 1..n-1 except the d_i."""
    cuts = set(lam.d[1:-1])
    return frozenset(i for i in range(1, lam.n) if i not in cuts)


def finite_subset(n: int) -> frozenset[int]:
    """The finite simple roots 1..n-1 (the arc complement of node 0)."""
    return frozenset(range(1, n))


@dataclass(frozen=True)
class KappaBundle:
    lam: Composition
    tableau: Tableau
    kappa: AffinePermutation
    tau_q: AffinePermutation
    sigma: AffinePermutation


@op
def kappa_bundle(lam: Composition) -> KappaBundle:
    """kappa and its translation/finite parts, with the bundle identities checked.

    kappa has matrix sum_i t^{nu_i - 1} E_{i, l(i)} + sum_i t^-1 E_{i+s, m(i)};
    tau_q is its diagonal of t-orders and sigma the underlying permutation,
    so that kappa = tau_q * sigma, with the translation tau_q on the left.
    Both are built as windows, by the rule of ``affine.from_matrix`` (t^c at
    row i, column j means w(j) = i - c n): kappa(l(i)) = i - (nu_i - 1) n,
    kappa(m(i)) = i + s + n, sigma(l(i)) = i and sigma(m(i)) = i + s.
    """
    tab = build(lam)
    n, s = lam.n, tab.s
    nu = tab.nu
    kappa, sigma = [0] * n, [0] * n
    for i, j in enumerate(tab.l, start=1):
        kappa[j - 1], sigma[j - 1] = i - (nu.part(i) - 1) * n, i
    for i, j in enumerate(tab.m, start=1):
        kappa[j - 1], sigma[j - 1] = i + s + n, i + s
    kappa, sigma = AffinePermutation(kappa), AffinePermutation(sigma)

    q = [nu.part(i) - 1 for i in range(1, s + 1)] + [-1] * (n - s)
    tau_q = affine.translation(n, q)

    if tau_q * sigma != kappa:
        raise IdentityFailed("kappa != tau_q * sigma")
    if affine.min_coset_rep(kappa, finite_subset(n), Side.RIGHT) != tau_q:
        raise IdentityFailed("tau_q is not the minimal representative of kappa")
    return KappaBundle(lam=lam, tableau=tab, kappa=kappa, tau_q=tau_q, sigma=sigma)


@op
def richardson_element(lam: Composition) -> LaurentMatrix:
    """The dense-orbit nilpotent Z = sum over columns of down-shift maps.

    Z sends the basis vector at f[i, j] to the one at f[i, j-1] (0 for j = 1),
    so each tableau column contributes one Jordan block of its height.
    """
    return _richardson(build(lam))


def _richardson(tab: Tableau) -> LaurentMatrix:
    return _sparse(tab.n, [(tab.f[(i, j)], tab.f[(i, j + 1)], 1, 0)
                           for i in range(1, tab.s + 1) for j in range(1, tab.nu.part(i))])


def _sparse(n: int, terms) -> LaurentMatrix:
    """The n x n matrix sum c t^e E_ij over the (i, j, c, e) of terms, 1-based,
    c != 0: each entry is summed into one normalized term dict, and the
    entries no term reaches share one zero."""
    entries = {}
    for i, j, c, e in terms:
        d = entries.get((i, j))
        if d is None:
            entries[i, j] = {e: c}
        else:
            _addmul(d, c, e, {0: 1})
    zero = LaurentPoly.zero()
    rows = [[zero] * n for _ in range(n)]
    for (i, j), d in entries.items():
        rows[i - 1][j - 1] = _raw(d)
    return _matrix(rows)


@dataclass(frozen=True)
class VarpiWitness:
    """The certificate b (1 - t^-1 Z) c = lift of one composition, with the
    tableau and the Richardson element Z it was built from, the point
    1 - t^-1 Z and the product bz = b (1 - t^-1 Z) it was checked through,
    so that ``broken_corner_witness`` and the varpi suite extend it without
    rebuilding any of them."""

    varpi: AffinePermutation
    lift: LaurentMatrix
    b: LaurentMatrix
    c: LaurentMatrix
    tableau: Tableau
    z: LaurentMatrix
    point: LaurentMatrix
    bz: LaurentMatrix


def _b_matrix(tab: Tableau) -> LaurentMatrix:
    terms = []
    for i in range(1, tab.s + 1):
        h = tab.nu.part(i)
        for j in range(1, h + 1):
            for k in range(j, h + 1):
                terms.append((tab.f[(i, k)], tab.f[(i, j)], 1, k - j))
    return _sparse(tab.n, terms)


def _c_matrix(tab: Tableau, corner_row_offset: int = 0) -> LaurentMatrix:
    """c = sum_i (diagonal of column i) + sum_{j>=2} t^{j-1} F^i_{j - offset, 1}.

    offset 0 is the correct corner column; offset 1 is the broken variant
    retained as a negative control (it destroys the product identity and
    even the determinant).
    """
    terms = []
    for i in range(1, tab.s + 1):
        h = tab.nu.part(i)
        for j in range(1, h + 1):
            terms.append((tab.f[(i, j)], tab.f[(i, j)], 1, 0))
        for j in range(2, h + 1):
            terms.append((tab.f[(i, j - corner_row_offset)], tab.f[(i, 1)], 1, j - 1))
    return _sparse(tab.n, terms)


def _varpi_lift(tab: Tableau) -> LaurentMatrix:
    terms = []
    for i in range(1, tab.s + 1):
        h = tab.nu.part(i)
        terms.append((tab.f[(i, h)], tab.f[(i, 1)], 1, h - 1))
        for j in range(2, h + 1):
            terms.append((tab.f[(i, j - 1)], tab.f[(i, j)], -1, -1))
    return _sparse(tab.n, terms)


@op
def varpi_witness(lam: Composition) -> VarpiWitness:
    """The cell certificate b (1 - t^-1 Z) c = lift, checked exactly.

    Both b and c are certified members of the standard Iwahori; the lift is
    a monomial matrix whose normalized form is the element varpi.  Raises
    IdentityFailed when the exact product does not match, which would mean
    the construction itself is wrong, not the input.
    """
    tab = build(lam)
    b = _b_matrix(tab)
    c = _c_matrix(tab)
    z = _richardson(tab)
    lift = _varpi_lift(tab)
    point = deformation(z)
    bz = b * point
    if bz * c != lift:
        raise IdentityFailed("b (1 - t^-1 Z) c does not equal the varpi lift")
    if not (borel_membership(b) and borel_membership(c)):
        raise IdentityFailed("witness matrices must lie in the standard Iwahori")
    return VarpiWitness(varpi=affine.from_matrix(lift), lift=lift, b=b, c=c, tableau=tab, z=z,
                        point=point, bz=bz)


def broken_corner_witness(wit: VarpiWitness) -> bool:
    """Whether the off-by-one corner-column variant of the witness's c still
    satisfies the product identity with its bz = b (1 - t^-1 Z) and lift;
    only the broken c is built, and one product formed.  Kept as a negative
    control; expected False whenever some column has height at least 2."""
    c_bad = _c_matrix(wit.tableau, corner_row_offset=1)
    return wit.bz * c_bad == wit.lift


@op
def decompose_varpi(bundle: KappaBundle) -> tuple[AffinePermutation, AffinePermutation]:
    """Finite w_g and block-preserving w_p with varpi = w_g * kappa * w_p.

    kappa and the tableau come from the bundle; varpi is read off the
    tableau, from the lift that ``varpi_witness`` certifies for the same
    composition.

    Both are built as windows.  w_g = (f(1, nu_1), ..., f(s, nu_s),
    iota(t_1), ..., iota(t_{n-s})) sends i to the bottom entry of column i
    and i+s to the upstairs neighbor of the row-aligned enumeration; w_p
    carries the top-of-column entries to the red enumeration, w_p(f(i, 1)) =
    l(i), and the row-aligned enumeration to the blue one, w_p(t_i) = m(i),
    so it preserves every row block.  Both the product identity and the
    block-preservation are verified exactly.
    """
    lam, tab = bundle.lam, bundle.tableau
    s = tab.s
    w_g = AffinePermutation([tab.f[(i, tab.nu.part(i))] for i in range(1, s + 1)]
                            + [tab.iota[t] for t in tab.tmap])
    w_p = [0] * lam.n
    for i, j in enumerate(tab.l, start=1):
        w_p[tab.f[(i, 1)] - 1] = j
    for t, j in zip(tab.tmap, tab.m):
        w_p[t - 1] = j
    w_p = AffinePermutation(w_p)

    if not w_g.is_finite():
        raise IdentityFailed("w_g must be finite")
    for i in range(1, lam.r + 1):
        block = set(lam.row(i))
        if any(w_p(j) not in block for j in block):
            raise IdentityFailed("w_p must preserve the row blocks")

    if w_g * bundle.kappa * w_p != affine.from_matrix(_varpi_lift(tab)):
        raise IdentityFailed("w_g * kappa * w_p != varpi")
    return w_g, w_p


@dataclass(frozen=True)
class KappaReport:
    in_min_reps: bool
    left_stable: bool
    length: int
    length_formula: int
    is_compactification: bool

    @property
    def lengths_match(self) -> bool:
        return self.length == self.length_formula


@op
def check_kappa(bundle: KappaBundle) -> KappaReport:
    """Minimality, left stability, and the closed-form length of the bundle's kappa.

    * in_min_reps: kappa * s_i > kappa for every i in the block parabolic.
    * left_stable: for every finite i, s_i * kappa either descends or has the
      same minimal representative modulo the block parabolic.
    * length vs formula: l(kappa) against 2 dim G/P plus the sum of
      |row k| * |blue k'| over k' < k, both sides computed independently.
    * is_compactification: the two lengths agree with no correction term
      exactly when the composition has two parts.
    """
    lam, tab, kappa = bundle.lam, bundle.tableau, bundle.kappa
    n = lam.n
    sp = parabolic_subset(lam)
    lk = kappa.length()

    in_min_reps = all(
        (kappa * affine.simple_reflection(n, i)).length() > lk for i in sp
    ) if n >= 2 else True

    left_stable = True
    kappa_min = affine.min_coset_rep(kappa, sp, Side.RIGHT)
    for i in range(1, n):
        sk = affine.simple_reflection(n, i) * kappa
        if sk.length() < lk:
            continue
        if affine.min_coset_rep(sk, sp, Side.RIGHT) != kappa_min:
            left_stable = False
            break

    correction = 0
    for k in range(1, lam.r + 1):
        for kp in range(1, k):
            correction += len(lam.row(k)) * len(tab.blue[kp])
    formula = 2 * dim_g_mod_p(lam) + correction

    return KappaReport(
        in_min_reps=in_min_reps,
        left_stable=left_stable,
        length=lk,
        length_formula=formula,
        is_compactification=(lk == 2 * dim_g_mod_p(lam)),
    )


@op
def conormal_directions(w: AffinePermutation, sp: frozenset[int]) -> frozenset[Root]:
    """Positive finite roots outside the parabolic that w keeps positive.

    These span the conormal fiber directions over the translate by w of the
    base point.  w must be finite.
    """
    if not w.is_finite():
        raise ValueError("conormal_directions expects a finite element")
    n = w.n
    out = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if _in_parabolic(a, b, sp):
                continue
            if affine.act_on_root(w, Root(a, b, n)).positive:
                out.append(Root(a, b, n))
    return frozenset(out)


def _in_parabolic(a: int, b: int, sp: frozenset[int]) -> bool:
    """Whether the root (a, b) is a sum of simple roots indexed by sp."""
    return all(i in sp for i in range(a, b))


def longest_min_rep(lam: Composition) -> AffinePermutation:
    """The longest minimal coset representative: block anti-diagonal identity
    blocks, sending block i of columns to block i of rows counted from the
    bottom."""
    n = lam.n
    d = lam.d
    window = [0] * n
    for i in range(1, lam.r + 1):
        for a in range(1, lam.parts[i - 1] + 1):
            window[d[i - 1] + a - 1] = n - d[i] + a
    return AffinePermutation(tuple(window))


def lift_finite(w: AffinePermutation, column: int = 1) -> LaurentMatrix:
    """A determinant-one constant monomial lift of a finite element.

    The permutation matrix gets its entry in the given column (1..n) negated
    when the length of w is odd, since the sign of a finite permutation is
    (-1)^length; any other sign placement differs by a torus element and
    lands in the same cells.
    """
    if not w.is_finite():
        raise ValueError("lift_finite expects a finite element")
    n = w.n
    entries = {(w(j), j): LaurentPoly.one() for j in range(1, n + 1)}
    if w.length() % 2:
        entries[(w(column), column)] = -LaurentPoly.one()
    M = LaurentMatrix.from_entries(n, entries)
    if det(M) != LaurentPoly.one():
        raise IdentityFailed("the parity-signed lift does not have determinant one")
    return M


@dataclass(frozen=True)
class DivisorBundle:
    i: int
    k: int
    w: AffinePermutation
    lift: LaurentMatrix
    gamma: Root
    v_k: AffinePermutation
    v_k_min: AffinePermutation


@op
def divisor_data(lam: Composition, i: int) -> DivisorBundle:
    """All data attached to the i-th codimension-one stratum, verified.

    Checks performed at construction: the lift of w = s_k * longest_min_rep,
    signed in column d_{i-1} + 1, has determinant one and lifts w, the
    conormal directions of w reduce to {gamma}, and the minimal
    representative of v_k has length dim G/P.  v_k, the antidiagonal matrix
    with t^-1 in row k and t in row k + 1, is built as its window:
    v_k(n + 1 - r) = r + n [r = k] - n [r = k + 1].
    """
    if not 1 <= i <= lam.r - 1:
        raise BadDivisorIndex(f"divisor index {i} for a {lam.r}-part composition")
    n = lam.n
    d = lam.d
    k = n - d[i]
    w = affine.simple_reflection(n, k) * longest_min_rep(lam)
    gamma = Root(d[i - 1] + 1, d[i + 1], n)

    lift = lift_finite(w, d[i - 1] + 1)
    if affine.from_matrix(lift) != w:
        raise IdentityFailed("divisor lift does not lift s_k * longest_min_rep")

    v_k = AffinePermutation([r + n * ((r == k) - (r == k + 1)) for r in range(n, 0, -1)])
    sp = parabolic_subset(lam)
    v_k_min = affine.min_coset_rep(v_k, sp, Side.RIGHT)

    if conormal_directions(w, sp) != frozenset({gamma}):
        raise IdentityFailed("conormal directions of the divisor are not {gamma}")
    if v_k_min.length() != dim_g_mod_p(lam):
        raise IdentityFailed("minimal representative length must be dim G/P")

    return DivisorBundle(i=i, k=k, w=w, lift=lift, gamma=gamma, v_k=v_k, v_k_min=v_k_min)


@dataclass(frozen=True)
class DivisorWitnesses:
    b1: LaurentMatrix
    b2: LaurentMatrix
    b3: LaurentMatrix
    reduced: LaurentMatrix


def divisor_witnesses(data: DivisorBundle, a) -> DivisorWitnesses:
    """The explicit Iwahori witnesses reducing the conormal point to a
    monomial matrix.

    For the point lift * (1 - a t^-1 E_gamma) with an exact a != 0, the
    product b1 * b2 * lift * (1 - a t^-1 E_gamma) * b3 is a monomial matrix
    whose normalized form is the minimal representative of v_k.  The
    construction raises IdentityFailed if that fails, since it certifies the
    cell, and TypeError when a is not exact (a float).
    """
    a = _as_scalar(a)
    if a == 0:
        raise ValueError("witness scale a must be nonzero")
    n = data.lift.n
    k = data.k  # n - d_i
    top, bottom = data.gamma.i, data.gamma.j  # d_{i-1} + 1 and d_{i+1}
    e_sign = data.lift.entry(k, top).coeff(0)

    b2 = LaurentMatrix.identity(n) + unit(n, k + 1, k, LaurentPoly.t(1).scale(_quo(e_sign, a)))
    b3 = LaurentMatrix.identity(n) + unit(n, bottom, top, LaurentPoly.t(1).scale(_quo(1, a)))
    diag = []
    for idx in range(1, n + 1):
        if idx == k:
            diag.append(LaurentPoly.constant(_quo(e_sign, a)))
        elif idx == k + 1:
            diag.append(LaurentPoly.constant(e_sign * a))
        else:
            diag.append(LaurentPoly.one())
    b1 = LaurentMatrix.diagonal(diag)

    point = data.lift * deformation(unit(n, top, bottom, LaurentPoly.constant(a)))
    reduced = b1 * b2 * point * b3
    if affine.from_matrix(reduced) != data.v_k_min:
        raise IdentityFailed("witness reduction does not produce v_k's representative")
    return DivisorWitnesses(b1=b1, b2=b2, b3=b3, reduced=reduced)


def unit(n: int, i: int, j: int, p: LaurentPoly) -> LaurentMatrix:
    """p * E_{i,j}, 1-based."""
    return LaurentMatrix.from_entries(n, {(i, j): p})
