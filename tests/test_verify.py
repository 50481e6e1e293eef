import importlib
import json
from collections import Counter

import pytest

from affcells import affine, jsonio, ops, partitions, verify
from affcells.affine import AffinePermutation
from affcells.errors import FlagInvariantError, IdentityFailed
from affcells.laurent import LaurentMatrix
from affcells.partitions import compositions_of
from affcells.verify import CheckResult, SuiteResult, coverage_gap, report_obj
from planting import plant


class TestCoverage:
    def test_all_suites_cover_every_operation(self):
        results = verify.run_suites(list(verify.SUITES), nmax=2, seed=0)
        assert coverage_gap(results) == set()

    def test_partial_runs_leave_gaps(self):
        result = verify.run_suite("lengths", nmax=2, seed=0)
        gap = coverage_gap([result])
        assert "affine.act_on_root" in result.ops and "affine.act_on_root" not in gap
        assert "cells.iwahori_cell" in gap

    def test_every_registered_op_resolves_to_its_counted_callable(self):
        assert len(ops.CALLS) == 29
        for name in ops.CALLS:
            module, *path = name.split(".")
            fn = importlib.import_module(f"affcells.{module}")
            for attr in path:
                fn = getattr(fn, attr)
            assert fn.__wrapped__.__qualname__ == ".".join(path)
            before = ops.CALLS[name]
            try:
                fn()  # every op takes arguments, so this raises before running
            except TypeError:
                pass
            assert ops.CALLS[name] == before + 1, name


class TestReportInvariants:
    def test_failures_always_carry_witnesses(self):
        c = CheckResult("x")
        c.record(False)
        assert c.failed == 1 and c.witnesses == ["unspecified input"]

    def test_a_guarded_witness_names_the_exception_type(self):
        c = CheckResult("x")
        with c.guard("sample 0"):
            raise KeyError(3)
        assert (c.passed, c.failed) == (0, 1) and c.witnesses == ["sample 0: KeyError: 3"]

    def test_expect_equal_formats_the_witness_only_on_failure(self, monkeypatch):
        # A pass is one record(True) call, so a wrapper of record (such as a
        # clock timing each check) sees every check once; it builds no repr.
        class Unprintable:
            def __init__(self, value):
                self.value = value

            def __eq__(self, other):
                return self.value == other.value

            def __repr__(self):
                raise AssertionError("repr built for a passing check")

        calls = []
        record = CheckResult.record
        monkeypatch.setattr(CheckResult, "record",
                            lambda c, *args: calls.append(args) or record(c, *args))
        c = CheckResult("x")
        c.expect_equal(Unprintable(1), Unprintable(1), "sample 0")
        assert calls == [(True,)] and (c.passed, c.failed) == (1, 0)
        c.expect_equal(2, 3, "sample 1")
        assert calls[1] == (False, "sample 1: got 2, want 3")
        assert (c.passed, c.failed) == (1, 1) and c.witnesses == ["sample 1: got 2, want 3"]

    def test_a_passing_check_never_formats_its_witness(self):
        # A callable witness is called only when a failure is recorded, and
        # only its string is kept.
        def unformattable():
            raise AssertionError("witness formatted for a passing check")

        c = CheckResult("x")
        c.record(True, unformattable)
        c.expect_equal(1, 1, unformattable)
        with c.guard(unformattable):
            pass
        assert c.attempt(unformattable, int, "3") == 3
        assert (c.passed, c.failed, c.witnesses) == (3, 0, [])
        c.record(False, lambda: "sample 0")
        c.expect_equal(2, 3, lambda: "sample 1")
        with c.guard(lambda: "sample 2"):
            raise KeyError(3)
        assert c.attempt(lambda: "sample 3", int, "x") is None
        assert c.witnesses == ["sample 0", "sample 1: got 2, want 3", "sample 2: KeyError: 3",
                               "sample 3: ValueError: invalid literal for int() with base 10: 'x'"]

    def test_witnesses_are_the_text_of_each_failing_input(self, monkeypatch):
        # With the abs dropped from the length formula, suite_lengths fails
        # at n = 2.  Each failing (window, i) keeps its own string, formatted
        # when it failed: a witness bound late to the loop variables would
        # repeat one string, and a callable left unformatted is not a str.
        planted = plant(AffinePermutation.length, "abs((wj - wi) // n)", "(wj - wi) // n")
        monkeypatch.setattr(AffinePermutation, "length", planted)
        result = verify.run_suite("lengths", nmax=2, seed=0)
        step = next(c for c in result.checks
                    if c.name == "length_changes_by_one_under_simple_factors")
        want = [f"window {w.window}, s_{i}" for w in affine.bruhat_ball(2, 6) for i in range(2)
                if abs((w * affine.simple_reflection(2, i)).length() - w.length()) != 1]
        assert "window (2, 1), s_0" in want and len(set(want)) == len(want) == step.failed
        assert step.witnesses == want
        assert all(type(text) is str for c in result.checks for text in c.witnesses)
        obj = json.loads(jsonio.dumps(report_obj([result], 2, 0)))
        assert obj["ok"] is False
        assert obj["suites"][0]["checks"][1]["witnesses"] == want

    def test_report_shape(self):
        c = CheckResult("x")
        c.record(True)
        c.record(False, "bad input")
        r = SuiteResult("demo", 2, 0, [c])
        obj = report_obj([r], 2, 0)
        assert obj["schema"] == 1
        assert obj["ok"] is False
        check = obj["suites"][0]["checks"][0]
        assert check["failed"] == 1 and check["witnesses"] == ["bad input"]

    def test_coverage_enforced_only_on_request(self):
        r = verify.run_suite("lengths", nmax=2, seed=0)
        loose = report_obj([r], 2, 0)
        strict = report_obj([r], 2, 0, enforce_coverage=True)
        assert loose["ok"] is True
        assert strict["ok"] is False and strict["coverage_missing"]

    def test_flag_validation_failure_is_recorded(self, monkeypatch):
        from affcells.lattices import AffineFlag

        def broken(flag):
            raise FlagInvariantError("planted")

        monkeypatch.setattr(AffineFlag, "validate", broken)
        r = verify.run_suite("embeddings", nmax=1, seed=0)
        check = next(c for c in r.checks if c.name == "image_flags_satisfy_invariants")
        assert check.failed == 1 and check.witnesses == ["lambda=(1,): FlagInvariantError: planted"]
        assert report_obj([r], 1, 0)["ok"] is False

    def test_a_raising_check_is_recorded_not_fatal(self, monkeypatch, capsys):
        self._assert_raising_beta_is_recorded(monkeypatch, capsys, FlagInvariantError)

    def test_any_exception_in_a_check_is_recorded_not_fatal(self, monkeypatch, capsys):
        self._assert_raising_beta_is_recorded(monkeypatch, capsys, ValueError)

    @staticmethod
    def _assert_raising_beta_is_recorded(monkeypatch, capsys, error):
        from affcells import cells, cli

        def broken(flags, lam):
            raise error("planted")

        monkeypatch.setattr(cells, "beta", broken)
        code = cli.run(["verify", "--suite", "embeddings", "--nmax", "2", "--format", "json"])
        assert code == 1
        obj = json.loads(capsys.readouterr().out)
        check = next(c for c in obj["suites"][0]["checks"]
                     if c["name"] == "two_step_flag_models_agree")
        assert check["passed"] == 0 and check["failed"] == 20
        assert check["witnesses"][0] == f"lambda=(1, 1), mv sample 0: {error.__name__}: planted"


def _verify_all(capsys):
    from affcells import cli

    code = cli.run(["verify", "--suite", "all", "--nmax", "2", "--format", "json"])
    obj = json.loads(capsys.readouterr().out)
    assert [s["suite"] for s in obj["suites"]] == list(verify.SUITES)
    checks = {f"{s['suite']}.{c['name']}": c for s in obj["suites"] for c in s["checks"]}
    return code, obj, checks


class TestOneFailurePath:
    """Any error raised in a suite is a recorded failure: the run exits 1 with
    a report of every suite, never 2 (the usage-error code) or a traceback."""

    def test_an_error_escaping_a_suite_ends_it_as_a_recorded_failure(
        self, monkeypatch, capsys
    ):
        from affcells import constructions

        def broken(w, sp):
            raise IdentityFailed("planted")

        monkeypatch.setattr(constructions, "conormal_directions", broken)
        code, obj, checks = _verify_all(capsys)
        assert code == 1 and obj["ok"] is False
        stopped = checks["divisors.suite_completed"]
        assert (stopped["passed"], stopped["failed"]) == (0, 1)
        assert stopped["witnesses"] == ["nmax=2, seed=0: IdentityFailed: planted"]
        assert [name for name in checks if name.endswith(".suite_completed")] == [
            "divisors.suite_completed"
        ]

    def test_a_suite_that_stops_early_keeps_its_counts(self, monkeypatch):
        from affcells import constructions

        real = constructions.conormal_directions

        def broken_at_three(w, sp):
            if w.n == 3:
                raise IdentityFailed("planted")
            return real(w, sp)

        monkeypatch.setattr(constructions, "conormal_directions", broken_at_three)
        r = verify.run_suite("divisors", nmax=3, seed=0)
        counts = {c.name: (c.passed, c.failed) for c in r.checks}
        # lambda = (1, 1) ran to the end; lambda = (1, 2) stopped the suite.
        assert counts["divisor_bundle_identities"] == (1, 0)
        assert counts["identity_coset_conormal_count"] == (1, 0)
        assert r.checks[-1].name == "suite_completed"
        assert r.checks[-1].witnesses == ["nmax=3, seed=0: IdentityFailed: planted"]

    def test_a_failed_construction_is_recorded_where_it_is_used(self, monkeypatch, capsys):
        from affcells import constructions

        def broken(bundle):
            raise IdentityFailed("planted")

        monkeypatch.setattr(constructions, "decompose_varpi", broken)
        code, obj, checks = _verify_all(capsys)
        assert code == 1 and obj["ok"] is False
        witness = "lambda=(1,): IdentityFailed: planted"
        assert witness in checks["kappa.varpi_equals_wg_kappa_wp"]["witnesses"]
        assert any(witness in c["witnesses"]
                   for name, c in checks.items() if name.startswith("embeddings."))
        assert not any(name.endswith("suite_completed") for name in checks)


def _interval_by_left_factors(w):
    """Mutant: s * u instead of u * s, which builds [e, w^-1]."""
    below = {affine.identity(w.n)}
    for i in verify._reduced_word(w):
        s = affine.simple_reflection(w.n, i)
        below |= {s * u for u in below}
    return below


def _interval_without_last_letter(w):
    """Mutant: the subwords of the reduced word with its last letter dropped."""
    below = {affine.identity(w.n)}
    for i in verify._reduced_word(w)[:-1]:
        s = affine.simple_reflection(w.n, i)
        below |= {u * s for u in below}
    return below


@pytest.mark.parametrize("mutant", [_interval_by_left_factors, _interval_without_last_letter])
def test_the_subword_oracle_catches_a_wrong_interval(monkeypatch, mutant):
    monkeypatch.setattr(verify, "_interval", mutant)
    r = verify.run_suite("bruhat", 3, 0)
    counts = {c.name: (c.passed, c.failed) for c in r.checks}
    assert sum(counts["bruhat_matches_subword_oracle"]) == 2237
    assert counts["bruhat_matches_subword_oracle"][1] > 0


def _deltas(suite, nmax, seed):
    before = dict(ops.CALLS)
    verify.run_suite(suite, nmax, seed)
    return {k: v - before[k] for k, v in ops.CALLS.items()}


class TestDerivedOncePerComposition:
    """Each construction is derived once per composition (or per divisor) and
    passed on; the extensions do not rebuild it from lambda."""

    def test_kappa_suite(self):
        calls = _deltas("kappa", 7, 7)
        assert calls["constructions.kappa_bundle"] == 127  # compositions of n <= 7
        # kappa_bundle and richardson_element build one each; decompose_varpi
        # reads varpi off the bundle's tableau.
        assert calls["tableau.build"] == 2 * 127

    def test_varpi_suite(self):
        # varpi_witness builds one; the broken corner variant and the suite's
        # determinant and inverse checks read the witness's tableau, Z and
        # 1 - t^-1 Z (374 while the broken corner variant rebuilt a tableau
        # for every composition with a column of height two or more, 254
        # while the suite built Z again through richardson_element).
        assert _deltas("varpi", 7, 7)["tableau.build"] == 127

    def test_divisors_suite(self):
        pairs = sum(lam.r - 1 for n in range(1, 6) for lam in compositions_of(n))
        assert _deltas("divisors", 5, 7)["constructions.divisor_data"] == pairs == 49


class TestDeterminantCounts:
    """phi_map reads its r + 1 lattices and its cell off one chain walk, and
    psi_map its lattice and cell, so they compute no determinant per lattice
    and the suites none per embedded point; mv_flag's column families have a
    known determinant, so it triangularizes them without one.  The counts are
    deterministic for a seed (they were 2,435 and 427 when every lattice went
    through from_columns, and embeddings was 856 while psi_map built its
    lattice by from_basis and the suite walked each psi point again, 751
    while mv_flag built its lattices by from_columns, and 571 while the suite
    built a varpi certificate per composition to read its window; 557 and
    207 while lift_finite took a determinant to learn a permutation's sign;
    554 and 205 while phi_map and mv_flag took det of their constant frame
    as a Laurent matrix, which they now take on its scalar rows)."""

    def test_embeddings_suite(self):
        assert _deltas("embeddings", 3, 7)["laurent.det"] == 71

    def test_embeddings_suite_walks_each_point_once(self):
        # iwahori_cell: one per lambda with n >= 2 (cell_invariance) and one
        # per Jordan type's base point; parabolic_cell: the base points only.
        calls = _deltas("embeddings", 3, 7)
        assert calls["cells.iwahori_cell"] == 11
        assert calls["cells.parabolic_cell"] == 5

    def test_divisors_suite(self):
        assert _deltas("divisors", 3, 7)["laurent.det"] == 155


class TestCertificateProducts:
    """The varpi suite forms each matrix of the certificate check once:
    varpi_witness forms b (1 - t^-1 Z) once and the broken corner variant
    reuses it, and the inverse series sum t^-k Z^k runs over the powers of
    Z that partitions.nilpotent_powers forms as sparse scalar rows, with no
    matrix product, up to the first zero power; the suite reads 1 - t^-1 Z
    off the witness.  The counts are deterministic; they may only be
    re-pinned downward (1,136 matrix products, 642 scalar products and 374
    deformations while the series ran to n - 1 through a scalar product and
    a matrix sum per power and the broken corner variant rebuilt
    b (1 - t^-1 Z); 254 deformations while the suite formed 1 - t^-1 Z
    again; 695 matrix products while the series multiplied the powers of Z
    as Laurent matrices)."""

    def test_varpi_suite(self, monkeypatch):
        from affcells import cells, constructions

        calls = Counter()
        mul, deformation = LaurentMatrix.__mul__, cells.deformation

        def counted_mul(self, other):
            calls["matrix" if isinstance(other, LaurentMatrix) else "scalar"] += 1
            return mul(self, other)

        def counted_deformation(x):
            calls["deformation"] += 1
            return deformation(x)

        monkeypatch.setattr(LaurentMatrix, "__mul__", counted_mul)
        monkeypatch.setattr(LaurentMatrix, "__rmul__", counted_mul)
        for module in (cells, constructions):
            monkeypatch.setattr(module, "deformation", counted_deformation)
        r = verify.run_suite("varpi", 7, 7)
        assert report_obj([r], 7, 7)["ok"]
        assert calls == {"matrix": 374, "deformation": 127}


class TestInverseSeriesFaults:
    """A series that misses a power of Z fails the inverse oracle, whether
    the suite's loop drops it or nilpotent_powers stops before it."""

    SERIES = "enumerate(parts.nilpotent_powers(wit.z), 1)"

    @pytest.mark.parametrize("module, name, old, new, failed", [
        # drop the last nonzero power
        (verify, "suite_varpi", SERIES, SERIES.replace("(wit.z)", "(wit.z)[:-1]"), 120),
        # stop one power early: Z^(n-1) is missed where it is nonzero
        (verify, "suite_varpi", SERIES, SERIES.replace("(wit.z)", "(wit.z)[:n - 2]"), 6),
        # the routine takes a nonzero Z^(n-1) for a nonzero Z^n and raises
        (partitions, "nilpotent_powers", "if len(powers) == len(x):",
         "if len(powers) == len(x) - 1:", 6),
    ], ids=["last_power_dropped", "one_power_early", "routine_stops_early"])
    def test_planted_series_fault(self, monkeypatch, module, name, old, new, failed):
        monkeypatch.setattr(module, name, plant(getattr(module, name), old, new))
        monkeypatch.setitem(verify.SUITES, "varpi", verify.suite_varpi)
        r = verify.run_suite("varpi", 7, 7)
        assert _counts(r)["nilpotent_deformation_inverse"] == (127 - failed, failed)
        assert report_obj([r], 7, 7)["ok"] is False


def _counts(result):
    return {c.name: (c.passed, c.failed) for c in result.checks}


class TestCertifiedChecksStillFail:
    """A suite records as passed what its construction already raises on
    (the Iwahori membership of a varpi certificate, tau_q's minimality, a
    divisor witness's reduction), and compares psi(g X g^-1) with a lattice
    built afresh from g times the base point.  A fault planted in each such
    identity still fails the suite's report."""

    def test_varpi_certificate_outside_the_iwahori(self, monkeypatch):
        from affcells import constructions

        monkeypatch.setattr(constructions, "borel_membership", lambda m: False)
        r = verify.run_suite("varpi", 3, 7)
        counts = _counts(r)
        assert counts["iwahori_certificate_product"] == (0, 7)  # compositions of n <= 3
        assert counts["witnesses_in_standard_iwahori"] == (0, 0)
        assert all(w.endswith("must lie in the standard Iwahori")
                   for w in r.checks[0].witnesses)
        assert report_obj([r], 3, 7)["ok"] is False

    def test_tau_q_not_minimal(self, monkeypatch):
        # tau_q s_1 * s_1 sigma is still kappa, but tau_q s_1 is not the
        # minimal representative of kappa modulo the finite Weyl group.
        from affcells import constructions

        planted = plant(
            constructions.kappa_bundle,
            "    tau_q = affine.translation(n, q)\n",
            "    tau_q = affine.translation(n, q)\n"
            "    if n >= 2:\n"
            "        s = affine.simple_reflection(n, 1)\n"
            "        tau_q, sigma = tau_q * s, s * sigma\n",
        )
        monkeypatch.setattr(constructions, "kappa_bundle", planted)
        r = verify.run_suite("kappa", 3, 7)
        assert _counts(r)["kappa_bundle_identities"] == (1, 6)  # only lambda = (1,) passes
        assert all(w.endswith("tau_q is not the minimal representative of kappa")
                   for w in r.checks[0].witnesses)
        assert report_obj([r], 3, 7)["ok"] is False

    def test_divisor_reduction_off_by_a_reflection(self, monkeypatch):
        # The planted reduction is still monomial, but of v_k's minimal
        # representative times s_1.
        from affcells import constructions

        reduced = "reduced = b1 * b2 * point * b3"
        planted = plant(
            constructions.divisor_witnesses, reduced,
            reduced + " * lift_finite(affine.simple_reflection(n, 1))",
        )
        monkeypatch.setattr(constructions, "divisor_witnesses", planted)
        r = verify.run_suite("divisors", 3, 7)
        check = next(c for c in r.checks if c.name == "witness_reduction_to_monomial")
        assert (check.passed, check.failed) == (0, 50)  # 5 divisors, 10 samples each
        assert all(w.endswith("witness reduction does not produce v_k's representative")
                   for w in check.witnesses)
        assert report_obj([r], 3, 7)["ok"] is False

    def test_psi_returning_t_times_its_lattice(self, monkeypatch):
        # A reference read off psi_map(base) would be scaled alike; the
        # lattice built afresh from g times the base point is not.
        from affcells import cells

        real = cells.psi_map

        def planted(x):
            point, lat, w = real(x)
            return point, lat.scaled(1), w

        monkeypatch.setattr(cells, "psi_map", planted)
        r = verify.run_suite("embeddings", 3, 7, samples=1)
        assert _counts(r)["psi_lattice_equivariance"] == (0, 50)
        assert report_obj([r], 3, 7)["ok"] is False
