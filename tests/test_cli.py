import json
import os
import subprocess
import sys
from pathlib import Path

import affcells
from affcells import jsonio
from affcells.cli import run
from affcells.laurent import LaurentMatrix


def capture(capsys):
    out = capsys.readouterr()
    return out.out


class TestJsonFormats:
    def test_matrix_roundtrip(self):
        from affcells.laurent import LaurentPoly

        m = LaurentMatrix([[LaurentPoly({0: 1, -1: 2}), LaurentPoly.zero()],
                           [LaurentPoly.t(3), LaurentPoly.one()]])
        assert jsonio.matrix_from_obj(jsonio.matrix_to_obj(m)) == m

    def test_window_roundtrip(self):
        from affcells.affine import AffinePermutation

        w = AffinePermutation((-1, 4))
        assert jsonio.window_from_obj(jsonio.window_to_obj(w)) == w


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

    def test_reduction_cap_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # [[1, 0], [1, 1]] needs at least one reduction step to triangularize
        path = tmp_path / "lower.json"
        path.write_text(json.dumps(
            {"n": 2, "entries": [[[0, 1, 1]], [], [[0, 1, 1]], [[0, 1, 1]]]}))
        assert run(["cell", "--matrix", str(path)]) == 0
        capture(capsys)
        monkeypatch.setattr("affcells.cells._MAX_REDUCTION_STEPS", 0)
        assert run(["cell", "--matrix", str(path)]) == 2
        assert "failed to terminate" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert run(["verify", "--suite", "all", "--nmax", "3", "--seed", "7",
                    "--format", "json"]) == 0
        obj = json.loads(capture(capsys))
        assert obj["ok"] is True
        assert obj["schema"] == 1
        assert obj["coverage_missing"] == []

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


class TestReportCommand:
    def test_roundtrip(self, capsys, tmp_path):
        run(["verify", "--suite", "lengths", "--nmax", "2", "--seed", "3",
             "--format", "json", "--out", str(tmp_path / "r.json")])
        capture(capsys)
        assert run(["report", "--in", str(tmp_path / "r.json"),
                    "--format", "text"]) == 0
        assert "ALL SUITES PASSED" in capture(capsys)

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

    def test_bad_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"schema\": 99}")
        assert run(["report", "--in", str(path)]) == 2
