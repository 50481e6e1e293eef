from affcells import verify
from affcells.verify import CheckResult, SuiteResult, coverage_gap, report_obj


class TestCoverage:
    def test_all_suites_cover_every_operation(self):
        assert coverage_gap() == set()

    def test_partial_runs_leave_gaps(self):
        assert coverage_gap(["lengths"])


class TestReportInvariants:
    def test_failures_always_carry_witnesses(self):
        c = CheckResult("x")
        c.record(False)
        assert c.failed == 1 and c.witnesses == ["unspecified input"]

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
