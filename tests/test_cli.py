import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affcells
from affcells import jsonio
from affcells.cli import run
from affcells.laurent import LaurentMatrix


GOLDEN = Path(__file__).parent / "golden"


def capture(capsys):
    out = capsys.readouterr()
    return out.out


class TestJsonFormats:
    def test_matrix_roundtrip(self):
        from affcells.laurent import LaurentPoly

        m = LaurentMatrix([[LaurentPoly({0: 1, -1: 2}), LaurentPoly.zero()],
                           [LaurentPoly.t(3), LaurentPoly.one()]])
        assert jsonio.matrix_from_obj(jsonio.matrix_to_obj(m)) == m


class TestKappaCommand:
    def test_worked_example_json(self, capsys):
        code = run(["kappa", "--lambda", "1,4,4,2,6", "--format", "json"])
        out = capture(capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["nu"] == [5, 4, 3, 3, 1, 1]
        assert obj["l"] == [1, 2, 3, 4, 12, 13]
        assert obj["m"] == [14, 15, 16, 17, 10, 11, 6, 7, 8, 9, 5]
        assert obj["length"] == 272
        assert obj["length_formula"] == 272
        assert len(obj["kappa_window"]) == 17

    def test_bad_lambda_is_usage_error(self, capsys):
        assert run(["kappa", "--lambda", "1,x"]) == 2


class TestTableauCommand:
    def test_json(self, capsys):
        assert run(["tableau", "--lambda", "2,1", "--format", "json"]) == 0
        obj = json.loads(capture(capsys))
        assert obj["rows"]["1"] == [1, 2]
        assert obj["red"]["1"] == [1, 2]
        assert obj["blue"]["2"] == [3]


class TestVarpiCommand:
    def test_json(self, capsys):
        assert run(["varpi", "--lambda", "1,1", "--format", "json"]) == 0
        obj = json.loads(capture(capsys))
        assert obj["varpi_window"] == [0, 3]
        assert jsonio.matrix_from_obj(obj["b"]) == jsonio.matrix_from_obj(obj["c"])


class TestDivisorCommand:
    def test_json(self, capsys):
        assert run(["divisor", "--lambda", "2,1", "--i", "1", "--format", "json"]) == 0
        obj = json.loads(capture(capsys))
        assert obj["gamma"] == {"i": 1, "j": 3}
        assert obj["v_k_min_window"] == [-1, 3, 4]

    def test_bad_index(self, capsys):
        assert run(["divisor", "--lambda", "2,1", "--i", "5"]) == 2


class TestCellCommand:
    def test_identity_from_stdin(self, capsys, monkeypatch):
        import io

        text = jsonio.dumps(jsonio.matrix_to_obj(LaurentMatrix.identity(3)))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["cell", "--matrix", "-", "--format", "json"]) == 0
        obj = json.loads(capture(capsys))
        assert obj["window"] == [1, 2, 3]
        assert obj["name"] == "e"

    def test_parabolic_reduction(self, capsys, tmp_path):
        from affcells.affine import AffinePermutation

        w = AffinePermutation((-1, 4))
        path = tmp_path / "m.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_obj(w.to_matrix())))
        assert run(["cell", "--matrix", str(path), "--parabolic", "1",
                    "--format", "json"]) == 0
        obj = json.loads(capture(capsys))
        assert obj["window"] == [-1, 4]
        assert obj["min_rep_window"] == [-1, 4]

    def test_bad_matrix_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"n\": 2, \"entries\": []}")
        assert run(["cell", "--matrix", str(path)]) == 2

    def test_zero_denominator_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 1, "entries": [[[0, 1, 0]]]}))
        assert run(["cell", "--matrix", str(path)]) == 2
        assert "bad matrix JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("obj", [
        {"n": 0, "entries": []},
        {"n": 1, "entries": [[[0, 1.5, 1]]]},
        {"n": 1, "entries": [[[0, "3", 1]]]},
    ], ids=["empty", "float", "string"])
    def test_malformed_matrix_is_usage_error(self, capsys, tmp_path, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run(["cell", "--matrix", str(path)]) == 2
        assert "bad matrix JSON" in capsys.readouterr().err

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert run(["cell", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad matrix JSON")

    def test_reduction_cap_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # [[1, 0], [1, 1]] needs at least one reduction step to triangularize
        path = tmp_path / "lower.json"
        path.write_text(json.dumps(
            {"n": 2, "entries": [[[0, 1, 1]], [], [[0, 1, 1]], [[0, 1, 1]]]}))
        assert run(["cell", "--matrix", str(path)]) == 0
        capture(capsys)
        monkeypatch.setattr("affcells.lattices._MAX_REDUCTION_STEPS", 0)
        assert run(["cell", "--matrix", str(path)]) == 2
        assert "failed to terminate" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert run(["verify", "--suite", "all", "--nmax", "3", "--seed", "7",
                    "--format", "json"]) == 0
        out = capture(capsys)
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["schema"] == 1
        assert obj["coverage_missing"] == []
        assert out == (GOLDEN / "verify_all_nmax3_seed7.json").read_text()

    @pytest.mark.parametrize("suite, nmax", [("lengths", 6), ("bruhat", 4), ("kappa", 7)])
    def test_combinatorics_suites_match_their_goldens(self, capsys, suite, nmax):
        # The three sweeps of the combinatorics benchmark, byte for byte.
        assert run(["verify", "--suite", suite, "--nmax", str(nmax), "--seed", "7",
                    "--format", "json"]) == 0
        golden = GOLDEN / f"verify_{suite}_nmax{nmax}_seed7.json"
        assert capture(capsys) == golden.read_text()

    def test_seed_determinism(self, capsys):
        run(["verify", "--suite", "kappa", "--nmax", "3", "--seed", "5",
             "--format", "json"])
        first = capture(capsys)
        run(["verify", "--suite", "kappa", "--nmax", "3", "--seed", "5",
             "--format", "json"])
        second = capture(capsys)
        assert first == second

    def test_single_suite_text(self, capsys):
        assert run(["verify", "--suite", "lengths", "--nmax", "3",
                    "--seed", "1"]) == 0
        out = capture(capsys)
        assert "PASS" in out

    def test_usage_error(self):
        assert run(["verify", "--suite", "nonsense"]) == 2

    def test_suite_that_ran_no_check_fails(self, capsys):
        assert run(["verify", "--suite", "lengths", "--nmax", "0"]) == 1
        out = capture(capsys)
        assert "FAIL  lengths: no check ran" in out and "FAILURES PRESENT" in out

    def test_full_run_missing_operations_fails(self, capsys):
        assert run(["verify", "--suite", "all", "--nmax", "1", "--format", "json"]) == 1
        obj = json.loads(capture(capsys))
        assert obj["ok"] is False
        assert "affine.quad_minimum" in obj["coverage_missing"]

    @pytest.mark.parametrize("out", ["missing/r.json", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, out):
        path = tmp_path / out
        assert run(["verify", "--suite", "varpi", "--nmax", "2", "--out", str(path)]) == 2
        _assert_usage_error(capsys, "cannot write")

    def test_out_is_opened_before_any_suite_runs(self, capsys, tmp_path, monkeypatch):
        from affcells import verify

        calls, real = [], verify.run_suites
        monkeypatch.setattr(verify, "run_suites", lambda *a: calls.append(a) or real(*a))
        argv = ["verify", "--suite", "varpi", "--nmax", "2", "--out"]
        assert run(argv + [str(tmp_path / "missing" / "r.json")]) == 2
        _assert_usage_error(capsys, "cannot write")
        assert calls == []
        assert run(argv + [str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1 and json.loads((tmp_path / "r.json").read_text())["ok"]

    def test_interrupted_run_keeps_existing_report(self, tmp_path, monkeypatch):
        from affcells import verify

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(verify, "run_suites", interrupt)
        path = tmp_path / "r.json"
        path.write_bytes(b'{"schema": 1, "ok": true}\n')
        with pytest.raises(KeyboardInterrupt):
            run(["verify", "--suite", "varpi", "--nmax", "2", "--out", str(path)])
        assert path.read_bytes() == b'{"schema": 1, "ok": true}\n'


def _assert_usage_error(capsys, text):
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"error: {text}") and out.err.count("\n") == 1


@pytest.mark.parametrize("command", [["cell", "--matrix"], ["report", "--in"]],
                         ids=["cell", "report"])
def test_undecodable_input_file_is_usage_error(command, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"n":1}')
    assert run(command + [str(path)]) == 2
    _assert_usage_error(capsys, "cannot read")


@pytest.mark.parametrize("argv", [
    ["tableau", "--lambda=--"],
    ["kappa", "--lambda=2,1", "--format=--"],
    ["divisor", "--lambda=2,1", "--i=--"],
    ["cell", "--matrix=--"],
    ["report", "--in=--"],
    ["verify", "--nmax=--"],
])
def test_double_dash_option_value_is_usage_error(argv, capsys):
    # argparse reads --opt=-- as an empty list, which once reached the
    # commands and raised AttributeError or TypeError out of run.
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestModuleEntryPoints:
    def _run_module(self, module):
        env = dict(os.environ)
        src = str(Path(affcells.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, "verify", "--suite", "lengths", "--nmax", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_python_m_affcells(self):
        proc = self._run_module("affcells")
        assert proc.returncode == 0, proc.stderr
        assert "ALL SUITES PASSED" in proc.stdout

    def test_python_m_affcells_cli(self):
        proc = self._run_module("affcells.cli")
        assert proc.returncode == 0, proc.stderr
        assert "ALL SUITES PASSED" in proc.stdout


def _passing_report(**check):
    """A one-check report that passes, with the check's fields replaced."""
    check = {"name": "x", "passed": 1, "failed": 0, "witnesses": [], **check}
    return {"schema": 1, "suites": [{"suite": "lengths", "passed": check["passed"],
                                     "failed": check["failed"], "checks": [check]}]}


class TestReportCommand:
    def test_roundtrip(self, capsys, tmp_path):
        run(["verify", "--suite", "lengths", "--nmax", "2", "--seed", "3",
             "--format", "json", "--out", str(tmp_path / "r.json")])
        capture(capsys)
        assert run(["report", "--in", str(tmp_path / "r.json"),
                    "--format", "text"]) == 0
        assert "ALL SUITES PASSED" in capture(capsys)

    def test_roundtrip_json_is_identical(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        assert run(["verify", "--suite", "kappa", "--nmax", "3", "--seed", "1",
                    "--format", "json", "--out", str(path)]) == 0
        capture(capsys)
        assert run(["report", "--in", str(path), "--format", "json"]) == 0
        assert capture(capsys) == path.read_text()

    @pytest.mark.parametrize(
        "obj",
        [
            {"schema": 1, "ok": True, "suites": [
                {"suite": "lengths", "passed": 0, "failed": 3,
                 "checks": [{"name": "x", "passed": 0, "failed": 3, "witnesses": []}]}]},
            {"schema": 1, "ok": True, "suites": []},
            {"schema": 1, "ok": True, "suites": [
                {"suite": "lengths", "passed": 0, "failed": 0, "checks": []}]},
            {"schema": 1, "ok": True, "coverage_enforced": True,
             "coverage_missing": ["cells.mv_flag"], "suites": [
                 {"suite": "lengths", "passed": 1, "failed": 0,
                  "checks": [{"name": "x", "passed": 1, "failed": 0, "witnesses": []}]}]},
        ],
        ids=["failed-check", "no-suites", "no-check-ran", "coverage-missing"],
    )
    def test_stored_ok_is_not_trusted(self, capsys, tmp_path, obj):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(obj))
        assert run(["report", "--in", str(path)]) == 1
        assert capture(capsys).endswith("FAILURES PRESENT\n")
        assert run(["report", "--in", str(path), "--format", "json"]) == 1
        assert json.loads(capture(capsys))["ok"] is False

    def test_suite_totals_must_agree_with_checks(self, capsys, tmp_path):
        # The suite's totals say no check ran while its one check passed twice.
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": 1, "suites": [
            {"suite": "x", "passed": 0, "failed": 0,
             "checks": [{"name": "a", "passed": 2, "failed": 0, "witnesses": []}]}]}))
        assert run(["report", "--in", str(path)]) == 1
        out = capture(capsys)
        assert "ALL SUITES PASSED" not in out
        assert "FAIL  x: no check ran" not in out
        assert "FAIL  x: totals passed=0 failed=0 disagree with its checks" in out
        assert out.endswith("FAILURES PRESENT\n")

    def test_failing_report_exits_one(self, capsys, tmp_path):
        failing = {
            "schema": 1, "nmax": 2, "seed": 0, "ok": False,
            "coverage_missing": [],
            "suites": [{"suite": "lengths", "passed": 0, "failed": 1,
                        "checks": [{"name": "x", "passed": 0, "failed": 1,
                                    "witnesses": ["w"]}]}],
        }
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(failing))
        assert run(["report", "--in", str(path)]) == 1
        assert "FAIL" in capture(capsys)

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert run(["report", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad report JSON")

    def test_bad_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"schema\": 99}")
        assert run(["report", "--in", str(path)]) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "obj",
        [
            [1, 2],
            "text",
            {"schema": 1},
            {"schema": 1, "ok": True, "suites": [{"suite": "lengths", "passed": 1, "failed": 0}]},
            {"schema": 1, "ok": True, "suites": 5},
        ],
        ids=["list", "string", "no-suites", "suite-without-checks", "suites-not-a-list"],
    )
    def test_malformed_report_is_usage_error(self, capsys, tmp_path, obj, fmt):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run(["report", "--in", str(path), "--format", fmt]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")

    @pytest.mark.parametrize("fields", [{"coverage_enforced": False}, {}],
                             ids=["not-enforced", "enforced-absent"])
    def test_unenforced_coverage_gap_passes(self, capsys, tmp_path, fields):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(
            {**_passing_report(), "coverage_missing": ["cells.mv_flag"], **fields}))
        assert run(["report", "--in", str(path)]) == 0
        assert "note: operations not exercised" in capture(capsys)

    @pytest.mark.parametrize(
        "obj",
        [
            {**_passing_report(), "schema": True},
            {**_passing_report(), "schema": 1.0},
            _passing_report(passed=1.5),
            _passing_report(passed=True),
            _passing_report(passed=2, failed=-1),
            _passing_report(witnesses="abc"),
            _passing_report(witnesses=[5]),
            _passing_report(name=5),
            {"schema": 1, "suites": [{"suite": 3, "passed": 1, "failed": 0, "checks": [
                {"name": "x", "passed": 1, "failed": 0, "witnesses": []}]}]},
            {"schema": 1, "suites": [{"suite": "x", "passed": 0, "failed": 0, "checks": {}}]},
            {**_passing_report(), "coverage_missing": "ab"},
            *({**_passing_report(), "coverage_missing": ["cells.mv_flag"],
               "coverage_enforced": enforced} for enforced in ("no", 0, 1, None)),
        ],
        ids=["schema-true", "schema-float", "fractional-count", "bool-count",
             "negative-count", "witnesses-a-string", "witness-not-a-string",
             "check-name-not-a-string", "suite-name-not-a-string", "checks-not-a-list",
             "coverage-missing-a-string", "coverage-enforced-a-string",
             "coverage-enforced-zero", "coverage-enforced-one", "coverage-enforced-null"],
    )
    def test_mistyped_report_is_usage_error(self, capsys, tmp_path, obj):
        # Each was once rendered with exit 0 or 1, as if it were a report.
        path = tmp_path / "r.json"
        path.write_text(json.dumps(obj))
        assert run(["report", "--in", str(path)]) == 2
        _assert_usage_error(capsys, "malformed report: TypeError: ")
