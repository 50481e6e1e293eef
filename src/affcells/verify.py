"""Verification suites: every structural identity as a seeded sweep.

run_suite makes a SuiteResult for nmax and a seed and hands it to the suite,
which declares its checks with suite.check in report order and records into
them per-check pass/fail counts and the failing witnesses (inputs), so one
bad composition is enough to locate a regression.  All randomness flows
through random.Random(seed), so reports are reproducible byte for byte.

A witness is a string or a zero-argument callable that formats one; the
callable is called when a failure is recorded, and only its string is kept.
Every suite passes the witnesses it builds in its loops as callables, so a
check that passes formats no text.

An error raised inside a check's guard is a failure of that check, and the
sweep goes on.  An error that escapes a suite ends it: it becomes the one
failure of a suite_completed check, added after the counts recorded so far.

Coverage is measured: coverage_gap() lists the ``@op`` operations (ops.CALLS)
no run_suite result called.  A suite that records no check fails.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import affine, cells, constructions as cons, lattices, ops, partitions as parts
from .laurent import (
    LaurentPoly,
    _matrix,
    _raw,
    borel_membership,
    det,
    invert,
)
from .partitions import Composition, compositions_of, partitions_of
from .sampling import (
    jordan_matrix,
    random_conjugate_frame,
    random_finite_borel,
    random_iwahori,
    random_nilradical,
    random_parabolic,
    random_sl,
    random_window,
)

__all__ = [
    "CheckResult",
    "SuiteResult",
    "SUITES",
    "run_suite",
    "run_suites",
    "coverage_gap",
    "report_obj",
    "report_ok",
    "report_text",
]


def _text(witness) -> str:
    """The text of a witness: the string itself, or what the callable returns."""
    return witness() if callable(witness) else witness


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    witnesses: list = field(default_factory=list)

    def record(self, ok: bool, witness="") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.witnesses.append(_text(witness) or "unspecified input")

    def expect_equal(self, got, want, witness) -> None:
        # The witness, with the reprs of matrices, lattices and flags, is
        # formatted only for a failure; a pass is still one record call.
        if got == want:
            self.record(True)
        else:
            self.record(False, f"{_text(witness)}: got {got!r}, want {want!r}")

    @contextmanager
    def guard(self, witness):
        """Record an error raised in the block as a failure of this check,
        so that one bad input does not abort the sweep."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - report, do not crash the sweep
            self.record(False, f"{_text(witness)}: {type(exc).__name__}: {exc}")

    def attempt(self, witness, build, *args):
        """build(*args) recorded as a pass, or None once it failed."""
        with self.guard(witness):
            value = build(*args)
            self.record(True)
            return value
        return None


@dataclass
class SuiteResult:
    suite: str
    nmax: int
    seed: int
    checks: list = field(default_factory=list)
    # Registered operations the run called; set by run_suite, not reported.
    ops: frozenset = frozenset()

    def check(self, name: str) -> CheckResult:
        """A new check, reported after those declared before it."""
        check = CheckResult(name)
        self.checks.append(check)
        return check

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    @property
    def passed(self) -> int:
        return sum(c.passed for c in self.checks)


def _comps(nmax: int):
    for n in range(1, nmax + 1):
        yield from compositions_of(n)


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------


def suite_lengths(suite: SuiteResult) -> None:
    rng = random.Random(suite.seed)
    oracle = suite.check("length_equals_inversion_count")
    step = suite.check("length_changes_by_one_under_simple_factors")
    roundtrip = suite.check("window_matrix_roundtrip")
    root_sign = suite.check("root_sign_matches_length_step")
    translate = suite.check("translation_decomposition")

    pool = []
    for n in range(2, min(4, suite.nmax) + 1):
        pool.extend(affine.bruhat_ball(n, 6))
    for n in range(5, min(6, suite.nmax) + 1):
        pool.extend(random_window(rng, n) for _ in range(200))

    for w in pool:
        n = w.n
        lw = w.length()
        oracle.expect_equal(lw, w.length_oracle(), lambda: f"window {w.window}")
        roundtrip.expect_equal(affine.from_matrix(w.to_matrix()), w, lambda: f"window {w.window}")
        for i in range(n):
            ls = (w * affine.simple_reflection(n, i)).length()
            step.record(abs(ls - lw) == 1, lambda: f"window {w.window}, s_{i}")
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                pos = affine.act_on_root(w, affine.Root(a, b, n)).positive
                longer = (w * affine.reflection(n, a, b)).length() > lw
                root_sign.record(pos == longer, lambda: f"window {w.window}, root ({a},{b})")
        sigma, q = affine.decompose_translation(w)
        ok = sigma.is_finite() and sum(q) == 0 and sigma * affine.translation(n, q) == w
        translate.record(ok, lambda: f"window {w.window}")


# ---------------------------------------------------------------------------
# bruhat
# ---------------------------------------------------------------------------


def _reduced_word(w) -> list[int]:
    word = []
    cur = w
    while not cur.is_identity():
        i = next(i for i in range(cur.n) if cur.right_descent(i))
        word.append(i)
        cur = cur * affine.simple_reflection(cur.n, i)
    word.reverse()
    return word


def _interval(w) -> set:
    """The Bruhat interval [e, w] by the subword property (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 2.2): v <= w exactly when v is the
    product of a subword of one fixed reduced word of w."""
    below = {affine.identity(w.n)}
    for i in _reduced_word(w):
        s = affine.simple_reflection(w.n, i)
        below |= {u * s for u in below}
    return below


def suite_bruhat(suite: SuiteResult) -> None:
    agreement = suite.check("bruhat_matches_subword_oracle")
    quad_cases = suite.check("two_reflection_case_split")
    quad_chains = suite.check("two_reflection_chains_confirmed")

    for n in range(2, min(3, suite.nmax) + 1):
        ball = affine.bruhat_ball(n, 5)
        intervals = [_interval(w) for w in ball]
        for v in ball:
            for w, below in zip(ball, intervals):
                agreement.expect_equal(
                    affine.bruhat_leq(v, w),
                    v in below,
                    lambda: f"n={n}, v={v.window}, w={w.window}",
                )

    for n in range(2, min(4, suite.nmax) + 1):
        ball = affine.bruhat_ball(n, 5)
        for w in ball:
            sigma, c = w.sigma_and_orders()
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    tag = lambda: f"n={n}, w={w.window}, (a,b)=({a},{b})"
                    res = affine.quad_minimum(w, a, b)
                    want_case = 1 if c[a - 1] == c[b - 1] else 2
                    quad_cases.expect_equal(res.case, want_case, tag)
                    if res.case == 1:
                        s_l = affine.reflection(
                            n, min(sigma[a - 1], sigma[b - 1]), max(sigma[a - 1], sigma[b - 1])
                        )
                        s_r = affine.reflection(n, a, b)
                        quad_cases.record(s_l * w == w * s_r, lambda: f"{tag()} commutation")
                    ok = True
                    for chain in res.chains:
                        for x, y in zip(chain, chain[1:]):
                            if not (x.length() < y.length() and affine.bruhat_leq(x, y)):
                                ok = False
                        if chain[0] != res.minimum:
                            ok = False
                    if res.case == 2:
                        elements = {e.window for chain in res.chains for e in chain}
                        ok = ok and len(elements) == 4
                        ok = ok and all(
                            affine.bruhat_leq(res.minimum, e)
                            for chain in res.chains
                            for e in chain
                        )
                    quad_chains.record(ok, tag)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def suite_kappa(suite: SuiteResult) -> None:
    rng = random.Random(suite.seed)
    bundle_ok = suite.check("kappa_bundle_identities")
    minimal = suite.check("kappa_minimal_stable_length")
    compact = suite.check("compactification_iff_two_parts")
    varpi_dec = suite.check("varpi_equals_wg_kappa_wp")
    tau_len = suite.check("translation_length_is_twice_dim")
    jordan = suite.check("richardson_jordan_type")
    dominance = suite.check("nilradical_types_below_richardson")
    conj_inv = suite.check("conjugate_involution")

    for lam in _comps(suite.nmax):
        tag = lambda: f"lambda={lam.parts}"
        bundle = bundle_ok.attempt(tag, cons.kappa_bundle, lam)
        if bundle is None:
            continue

        rep = cons.check_kappa(bundle)
        ok = rep.in_min_reps and rep.left_stable and rep.lengths_match
        minimal.record(ok, "" if ok else f"{tag()}: {rep}")
        # For a single block the parabolic is the whole group and the cell is
        # a point; the dichotomy concerns proper parabolic subgroups.
        if lam.r >= 2:
            compact.expect_equal(rep.is_compactification, lam.r == 2, tag)
        else:
            compact.record(rep.is_compactification, tag)

        varpi_dec.attempt(tag, cons.decompose_varpi, bundle)

        tau_len.expect_equal(bundle.tau_q.length(), 2 * cons.dim_g_mod_p(lam), tag)
        # kappa_bundle raises unless tau_q is kappa's minimal representative
        # modulo the finite Weyl group, so that comparison is recorded.
        tau_len.record(True)

        nu = lam.column_partition()
        z = cons.richardson_element(lam)
        got = parts.jordan_type(z) if lam.n else None
        jordan.expect_equal(got, nu, tag)
        conj_inv.expect_equal(parts.conjugate(parts.conjugate(nu)), nu, tag)
        for _ in range(3):
            x = random_nilradical(rng, lam)
            ok = parts.dominance_leq(parts.jordan_type(x), nu)
            dominance.record(ok, "" if ok else f"{tag()}: X={x!r}")


# ---------------------------------------------------------------------------
# varpi
# ---------------------------------------------------------------------------


def suite_varpi(suite: SuiteResult) -> None:
    identity_ok = suite.check("iwahori_certificate_product")
    borel_ok = suite.check("witnesses_in_standard_iwahori")
    negative = suite.check("corner_column_off_by_one_fails")
    unit_det = suite.check("deformation_determinant_one")
    inverse_ok = suite.check("nilpotent_deformation_inverse")

    for lam in _comps(suite.nmax):
        tag = lambda: f"lambda={lam.parts}"
        wit = identity_ok.attempt(tag, cons.varpi_witness, lam)
        if wit is None:
            continue
        # varpi_witness raises unless b and c lie in the standard Iwahori.
        borel_ok.record(True)
        if wit.tableau.nu.part(1) >= 2:
            negative.record(not cons.broken_corner_witness(wit), tag)

        n = lam.n
        d = det(wit.point)
        ok = d == LaurentPoly.one() and d.ord() == 0
        unit_det.record(ok, "" if ok else f"{tag()}: det={d!r}")

        # sum_{k<n} t^-k Z^k, one term dict per entry, over the powers of Z
        # as sparse scalar rows {column: int}; they stop at the first zero one.
        with inverse_ok.guard(tag):
            inv = invert(wit.point)
            series = [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]
            for k, power in enumerate(parts.nilpotent_powers(wit.z), 1):
                for terms, row in zip(series, power):
                    for j, c in row.items():
                        terms[j][-k] = c
            inverse_ok.expect_equal(inv, _matrix([[_raw(d) for d in row] for row in series]), tag)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------


def suite_divisors(suite: SuiteResult) -> None:
    rng = random.Random(suite.seed)
    data_ok = suite.check("divisor_bundle_identities")
    below = suite.check("divisor_rep_below_kappa")
    full_len = suite.check("antidiagonal_length_is_dim_flag")
    witness_red = suite.check("witness_reduction_to_monomial")
    random_cells = suite.check("random_conormal_points_hit_divisor_cell")
    fiber_full = suite.check("identity_coset_conormal_count")

    for lam in _comps(suite.nmax):
        if lam.r < 2:
            continue
        n = lam.n
        sp = cons.parabolic_subset(lam)
        kappa = cons.kappa_bundle(lam).kappa
        fiber = cons.conormal_directions(affine.identity(n), sp)
        fiber_full.expect_equal(len(fiber), cons.dim_g_mod_p(lam), lambda: f"lambda={lam.parts}")
        for i in range(1, lam.r):
            tag = lambda: f"lambda={lam.parts}, i={i}"
            data = data_ok.attempt(tag, cons.divisor_data, lam, i)
            if data is None:
                continue
            below.record(affine.bruhat_leq(data.v_k_min, kappa), tag)
            full_len.expect_equal(data.v_k.length(), n * (n - 1) // 2, tag)
            for s in range(10):
                a = Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.choice([1, 2, 3]))
                stag = lambda: f"{tag()}, sample {s}, a={a}"
                with witness_red.guard(stag):
                    wit = cons.divisor_witnesses(data, a)
                    # divisor_witnesses raises unless wit.reduced is v_k_min.
                    ok = (
                        borel_membership(wit.b1)
                        and borel_membership(wit.b2)
                        and borel_membership(wit.b3)
                    )
                    witness_red.record(ok, stag)
                b = random_finite_borel(rng, n)
                x = cons.unit(n, data.gamma.i, data.gamma.j, LaurentPoly.constant(a))
                with random_cells.guard(stag):
                    cell = cells.phi_map(b * data.lift, x, lam)[2]
                    random_cells.expect_equal(affine.min_coset_rep(cell, sp), data.v_k_min, stag)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def suite_embeddings(suite: SuiteResult) -> None:
    nmax = suite.nmax
    rng = random.Random(suite.seed)
    witness_cell = suite.check("dense_point_hits_kappa_cell")
    bounded = suite.check("cotangent_image_below_kappa")
    flag_inv = suite.check("image_flags_satisfy_invariants")
    equivariance = suite.check("phi_constant_on_orbit_classes")
    psi_equiv = suite.check("psi_lattice_equivariance")
    psi_conj = suite.check("psi_cell_depends_only_on_jordan_type")
    psi_bound = suite.check("psi_cell_below_translation")
    mv_match = suite.check("two_step_flag_models_agree")
    lattice_axioms = suite.check("lattice_dimension_identities")
    cell_invariance = suite.check("cell_invariant_under_iwahori_factors")

    for n in range(1, nmax + 1):
        e_lat = lattices.Lattice.standard(n)
        lattice_axioms.expect_equal(lattices.vdim(e_lat), 0, lambda: f"n={n} standard")
        lattice_axioms.expect_equal(
            lattices.vdim(e_lat.scaled(1)), -n, lambda: f"n={n} t*standard"
        )
        lattice_axioms.expect_equal(
            lattices.quotient_dim(e_lat, e_lat.scaled(1)), n, lambda: f"n={n} quotient"
        )

    for lam in _comps(nmax):
        n = lam.n
        sp = cons.parabolic_subset(lam)
        bundle = cons.kappa_bundle(lam)
        kappa = bundle.kappa
        z = cons.richardson_element(lam)
        tag = lambda: f"lambda={lam.parts}"

        # kappa = w_g^-1 * varpi * w_p^-1 with w_g finite, so the frame
        # lifting w_g^-1 carries the dense point into the top cell.  phi_map
        # validates the flag it returns; the pass is recorded after the cell's.
        cell = None
        with flag_inv.guard(tag):
            w_g, _ = cons.decompose_varpi(bundle)
            cell = cells.phi_map(cons.lift_finite(w_g.inverse()), z, lam)[2]
        if cell is None:
            continue
        witness_cell.expect_equal(affine.min_coset_rep(cell, sp), kappa, tag)
        flag_inv.record(True)

        for s in range(50):
            g = random_sl(rng, n)
            x = random_nilradical(rng, lam)
            stag = lambda: f"{tag()}, sample {s}"
            cell = None
            with flag_inv.guard(stag):
                point, flag, cell = cells.phi_map(g, x, lam)
            if cell is None:
                continue
            bounded.record(affine.bruhat_leq(affine.min_coset_rep(cell, sp), kappa), stag)
            flag_inv.record(True)
            if s == 0 and n >= 2:
                b1 = random_iwahori(rng, n)
                b2 = random_iwahori(rng, n)
                with cell_invariance.guard(stag):
                    cell_invariance.expect_equal(cells.iwahori_cell(b1 * point * b2), cell, stag)
                p, pinv = random_parabolic(rng, lam)
                with equivariance.guard(stag):
                    flag2 = cells.phi_map(g * p, pinv * x * p, lam)[1]
                    equivariance.expect_equal(flag2, flag, stag)

        if lam.r == 2:
            for s in range(20):
                g, ginv = random_conjugate_frame(rng, n)
                x = random_nilradical(rng, lam)
                stag = lambda: f"{tag()}, mv sample {s}"
                conj = g * x * ginv
                with mv_match.guard(stag):
                    mv = cells.mv_flag(conj, lam, frame=g)
                    flag = cells.phi_map(g, x, lam)[1]
                    mv_match.expect_equal(cells.beta(mv, lam), flag, stag)

    for n in range(2, min(5, nmax) + 1):
        finite = cons.finite_subset(n)
        for mu in partitions_of(n):
            base = jordan_matrix(mu)
            lam_conj = Composition(parts=tuple(parts.conjugate(mu).parts))
            tau = cons.kappa_bundle(lam_conj).tau_q
            # The base point's cell is walked afresh, through iwahori_cell's
            # determinant, as the reference each conjugate's walked cell meets;
            # psi_map itself runs on the conjugates below.
            base_cell = None
            with psi_bound.guard(lambda: f"mu={mu.parts} base"):
                base_point = cells.deformation(base)
                base_cell = cells.parabolic_cell(base_point, finite)
            if base_cell is None:
                continue
            psi_bound.record(
                affine.bruhat_leq(base_cell, tau),
                lambda: f"mu={mu.parts} base cell {base_cell.window}",
            )
            # Left translation by the frame moves the one-sided cell, so the
            # conjugation invariant is the spherical double coset; its
            # minimal representative matches the one of the translation
            # attached to the Jordan type.
            base_two_sided = affine.min_double_coset_rep(base_cell, finite)
            psi_conj.expect_equal(
                base_two_sided,
                affine.min_double_coset_rep(tau, finite),
                lambda: f"mu={mu.parts} against translation",
            )
            for c in range(10):
                g, ginv = random_conjugate_frame(rng, n)
                ctag = lambda: f"mu={mu.parts}, conjugate {c}"
                with psi_equiv.guard(ctag):
                    _, lat, w = cells.psi_map(g * base * ginv)
                    # A fresh lattice, sharing no chain walk with lat.
                    psi_equiv.expect_equal(lat, lattices.Lattice.from_basis(g * base_point), ctag)
                    cell = affine.min_coset_rep(w, finite)
                    psi_conj.expect_equal(
                        affine.min_double_coset_rep(cell, finite), base_two_sided, ctag
                    )
                    psi_bound.record(
                        affine.bruhat_leq(cell, tau), lambda: f"{ctag()} cell {cell.window}"
                    )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

SUITES = {
    "lengths": suite_lengths,
    "bruhat": suite_bruhat,
    "kappa": suite_kappa,
    "varpi": suite_varpi,
    "divisors": suite_divisors,
    "embeddings": suite_embeddings,
}


def coverage_gap(results) -> set:
    """Registered operations (ops.CALLS) that no result called."""
    return set(ops.CALLS).difference(*(r.ops for r in results))


def run_suite(name: str, nmax: int, seed: int) -> SuiteResult:
    """Run one suite.  An error that escapes it ends the suite as the failure
    of a trailing suite_completed check, which a suite that ran to the end
    does not report."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    result = SuiteResult(name, nmax, seed)
    completed = CheckResult("suite_completed")
    before = dict(ops.CALLS)
    with completed.guard(f"nmax={nmax}, seed={seed}"):
        SUITES[name](result)
    if completed.failed:
        result.checks.append(completed)
    result.ops = frozenset(k for k, v in ops.CALLS.items() if v > before[k])
    return result


def run_suites(names, nmax: int, seed: int) -> list:
    return [run_suite(name, nmax, seed) for name in names]


def report_obj(results, nmax: int, seed: int, enforce_coverage: bool = False) -> dict:
    """Deterministic report object (schema 1).  Wall-clock time is reported
    only in the text rendering so that equal seeds give identical JSON.

    With enforce_coverage (the full-run case) an operation left unexercised
    counts as a failure.
    """
    gap = sorted(coverage_gap(results))
    obj = {
        "schema": 1,
        "nmax": nmax,
        "seed": seed,
        "suites": [
            {
                "suite": r.suite,
                "passed": r.passed,
                "failed": r.failed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "failed": c.failed,
                        "witnesses": list(c.witnesses),
                    }
                    for c in r.checks
                ],
            }
            for r in results
        ],
        "coverage_missing": gap,
        "coverage_enforced": enforce_coverage,
    }
    obj["ok"] = report_ok(obj)
    return obj


def _check_totals(suite: dict) -> tuple[int, int]:
    """(passed, failed) summed over a suite's checks."""
    checks = suite["checks"]
    return sum(c["passed"] for c in checks), sum(c["failed"] for c in checks)


def report_ok(obj: dict) -> bool:
    """A report passes when it has a suite, each suite has a check that
    passed and stored totals equal to its checks' sums, no check failed and
    no enforced coverage is missing."""
    suites = obj["suites"]
    return (
        bool(suites)
        and all(any(c["passed"] > 0 for c in s["checks"])
                and (s["passed"], s["failed"]) == _check_totals(s) for s in suites)
        and not any(c["failed"] for s in suites for c in s["checks"])
        and not (obj.get("coverage_enforced") and obj.get("coverage_missing"))
    )


def report_text(obj: dict, duration: float | None = None) -> str:
    lines = []
    for suite in obj["suites"]:
        for check in suite["checks"]:
            status = "PASS" if check["failed"] == 0 else "FAIL"
            lines.append(
                f"{status}  {suite['suite']}.{check['name']}  "
                f"passed={check['passed']} failed={check['failed']}"
            )
            for w in check["witnesses"][:5]:
                lines.append(f"      witness: {w}")
        totals = _check_totals(suite)
        if totals == (0, 0):
            lines.append(f"FAIL  {suite['suite']}: no check ran")
        if (suite["passed"], suite["failed"]) != totals:
            lines.append(
                f"FAIL  {suite['suite']}: totals passed={suite['passed']} "
                f"failed={suite['failed']} disagree with its checks "
                f"(passed={totals[0]} failed={totals[1]})"
            )
    if obj.get("coverage_missing"):
        label = (
            "COVERAGE MISSING"
            if obj.get("coverage_enforced")
            else "note: operations not exercised by the selected suites"
        )
        lines.append(f"{label}: " + ", ".join(obj["coverage_missing"]))
    lines.append(
        ("ALL SUITES PASSED" if obj["ok"] else "FAILURES PRESENT")
        + (f"  ({duration:.2f}s)" if duration is not None else "")
    )
    return "\n".join(lines)
