"""Contract fuzzing of what the CLI reads: the JSON of `cell --matrix` and
`report --in`, and the arguments of `tableau`, `kappa`, `varpi` and `divisor`.

JSON inputs are arbitrary recursive values, near-valid mutations of valid
matrices and reports, textual damage (truncation, a stray character) to
valid JSON, and files of arbitrary bytes.  Arguments are compositions of
n <= 5 with textual damage (empty parts, signs, floats, spaces, stray
commas) and small or out-of-range divisor indices; the damage never makes a
composition larger, so no large computation starts.  Whatever the input, `run` keeps the exit-code contract:
0, 1 or 2, no traceback, parseable output on exit 0, an `error:` line on
exit 2 (the only line for `cell` and `report`), and for `report` the verdict
of `verify.report_ok` recomputed from the input.
"""

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affcells import ops, verify
from affcells.cli import run
from affcells.partitions import compositions_of

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)
# Values one step away from a well-formed field.
NEARBY = st.sampled_from(
    [0, 1, -1, 2, 4, 2**63, -(2**63), 1.5, 1.0, float("nan"), "1", True, None, [], {}])


def _run(argv, text=""):
    """run(argv) on stdin text; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _mutate(draw, value):
    """Replace, retype or drop one node of value, found by a walk from the root."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        key = draw(st.sampled_from(list(value) if isinstance(value, dict)
                                   else range(len(value))))
        if draw(st.integers(0, 3)) == 0:
            del value[key]
        else:
            value[key] = _mutate(draw, value[key])
        return value
    return draw(NEARBY | VALUES)


@st.composite
def mutated(draw, valid):
    obj = copy.deepcopy(draw(valid))
    for _ in range(draw(st.integers(1, 3))):
        obj = _mutate(draw, obj)
    return obj


@st.composite
def damaged_text(draw, valid):
    """The JSON text of a valid object, truncated or with one character added."""
    text = json.dumps(draw(valid))
    cut = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:cut]
    return text[:cut] + draw(st.sampled_from('[]{},:"0-.eE \\x')) + text[cut:]


@st.composite
def matrices(draw):
    """Matrix JSON, n <= 3: a monomial matrix with constant determinant (so
    a cell exists) or arbitrary small cells."""
    n = draw(st.integers(1, 3))
    cells = [[] for _ in range(n * n)]
    if draw(st.booleans()):
        exps = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        exps.append(-sum(exps))
        for j, i in enumerate(draw(st.permutations(range(n)))):
            cells[i * n + j] = [[exps[j], draw(st.sampled_from([1, -1, 2])),
                                 draw(st.sampled_from([1, 3]))]]
    else:
        term = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(
            lambda t: [t[0], t[1], abs(t[2]) + 1])
        cells = [draw(st.lists(term, max_size=2)) for _ in range(n * n)]
    return {"n": n, "entries": cells}


@st.composite
def reports(draw):
    """Schema-1 reports whose checks usually pass and whose stored totals
    usually agree with their checks."""
    suites = []
    for _ in range(draw(st.integers(0, 2))):
        checks = []
        for _ in range(draw(st.integers(0, 2))):
            failed = draw(st.sampled_from([0, 0, 0, 1]))
            checks.append({
                "name": draw(st.text(max_size=4)),
                "passed": draw(st.integers(0, 3)),
                "failed": failed,
                "witnesses": draw(st.lists(st.text(max_size=4), min_size=failed,
                                           max_size=failed)),
            })
        passed = sum(c["passed"] for c in checks)
        failed = sum(c["failed"] for c in checks)
        if draw(st.integers(0, 4)) == 0:
            passed += 1
        suites.append({"suite": draw(st.sampled_from(list(verify.SUITES))),
                       "passed": passed, "failed": failed, "checks": checks})
    return {
        "schema": 1,
        "nmax": draw(st.integers(0, 5)),
        "seed": draw(st.integers(0, 9)),
        "ok": draw(st.booleans()),
        "suites": suites,
        "coverage_missing": draw(st.lists(st.sampled_from(sorted(ops.CALLS)), max_size=2)),
        "coverage_enforced": draw(st.booleans()),
    }


def _texts(valid):
    return st.one_of(
        VALUES.map(json.dumps),
        valid.map(json.dumps),
        mutated(valid).map(json.dumps),
        damaged_text(valid),
    )


def _check_contract(code, out, err):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@given(text=_texts(matrices()), fmt=st.sampled_from(["json", "text"]),
       parabolic=st.sampled_from([None, "", "0", "1", "0,2", "5", "x"]))
@FUZZ
def test_cell_keeps_the_contract(text, fmt, parabolic):
    argv = ["cell", "--format", fmt]
    if parabolic is not None:
        argv += ["--parabolic", parabolic]
    code, out, err = _run(argv + ["--matrix", "-"], text)
    _check_contract(code, out, err)
    assert code != 1  # cell verifies nothing, so it never reports a failure
    if code == 0:
        if fmt == "json":
            obj = json.loads(out)
            assert len(obj["window"]) == obj["n"]
        else:
            assert out.startswith("window: ")


@given(text=_texts(reports()), fmt=st.sampled_from(["json", "text"]))
@FUZZ
def test_report_keeps_the_contract(text, fmt):
    code, out, err = _run(["report", "--format", fmt, "--in", "-"], text)
    _check_contract(code, out, err)
    if code == 2:
        return
    verdict = verify.report_ok(json.loads(text))
    assert code == (0 if verdict else 1)
    if fmt == "json":
        assert json.loads(out)["ok"] is verdict
    else:
        assert out.endswith(("ALL SUITES PASSED\n" if verdict else "FAILURES PRESENT\n"))


@given(data=st.binary(max_size=64), command=st.sampled_from(["cell", "report"]))
@FUZZ
def test_file_of_arbitrary_bytes_keeps_the_contract(data, command, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "bytes.json"
    path.write_bytes(data)
    flag = "--matrix" if command == "cell" else "--in"
    _check_contract(*_run([command, flag, str(path)]))


COMPOSITIONS = [lam.parts for n in range(1, 6) for lam in compositions_of(n)]


@st.composite
def lambda_texts(draw):
    """A composition of n <= 5 as --lambda text, usually with one kind of
    damage.  No damage joins two parts or adds a digit other than 0."""
    parts = [str(p) for p in draw(st.sampled_from(COMPOSITIONS))]
    k = draw(st.integers(0, len(parts) - 1))
    kind = draw(st.sampled_from(["none", "comma", "sign", "float", "space", "zero", "junk"]))
    if kind == "comma":  # an empty part, or a leading or trailing comma
        parts.insert(draw(st.integers(0, len(parts))), "")
    elif kind == "sign":
        parts[k] = draw(st.sampled_from("+-")) + parts[k]
    elif kind == "float":
        parts[k] += draw(st.sampled_from([".0", ".5", "e0", "."]))
    elif kind == "space":
        space = draw(st.sampled_from([" ", "\t", "\n"]))
        parts[k] = draw(st.sampled_from([space + parts[k], parts[k] + space, space]))
    elif kind == "zero":
        parts[k] = "0"
    elif kind == "junk":
        return draw(st.text(alphabet=",+-. e0x", max_size=5))
    return ",".join(parts)


@given(command=st.sampled_from(["tableau", "kappa", "varpi", "divisor"]),
       lam=lambda_texts(), i=st.sampled_from(["-1", "0", "1", "2", "3", "4", "9", str(2**64), "x"]),
       fmt=st.sampled_from(["json", "text"]))
@FUZZ
def test_lambda_commands_keep_the_contract(command, lam, i, fmt):
    argv = [command, f"--lambda={lam}", "--format", fmt]
    if command == "divisor":
        argv.append(f"--i={i}")
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert out
        if fmt == "json":
            json.loads(out)
    else:
        assert code == 2 and "error:" in err
