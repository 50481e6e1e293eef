"""Command-line front end.

Subcommands: tableau, kappa, varpi, divisor, cell, verify, report.
Exit codes: 0 success, 1 verification failure, 2 usage error.
Compositions are written as comma-separated positive integers
(``--lambda 1,4,4,2,6``); the block parabolic is derived from them.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys
import time

from . import affine, cells, constructions as cons, jsonio, verify
from .errors import AffcellsError
from .partitions import Composition
from .tableau import build

__all__ = ["main", "run"]

USAGE_ERROR = 2
VERIFY_ERROR = 1


class UsageError(AffcellsError):
    """A bad invocation or unusable input; `run` alone reports it, with exit 2."""


def _parse_lambda(text: str) -> Composition:
    try:
        parts = tuple(int(x) for x in text.split(","))
        return Composition(parts)
    except (ValueError, AffcellsError) as exc:
        raise UsageError(f"bad --lambda {text!r}: {exc}") from exc


def _parse_subset(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --parabolic {text!r}: {exc}") from exc


def _read(path: str) -> str:
    """The text of a UTF-8 file, or of stdin for ``-``; a usage error if unreadable."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(jsonio.dumps(obj))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def _cmd_tableau(args) -> int:
    lam = _parse_lambda(args.lam)
    tab = build(lam)
    obj = {
        "lambda": list(lam.parts),
        "nu": list(tab.nu.parts),
        "rows": {str(i): list(lam.row(i)) for i in range(1, lam.r + 1)},
        "red": {str(i): list(tab.red[i]) for i in range(1, lam.r + 1)},
        "blue": {str(i): list(tab.blue[i]) for i in range(1, lam.r + 1)},
        "l": list(tab.l),
        "m": list(tab.m),
        "t": list(tab.tmap),
        "f": {f"{c},{d}": entry for (c, d), entry in sorted(tab.f.items())},
    }
    if args.format == "json":
        print(jsonio.dumps(obj))
    else:
        width = len(str(lam.n))
        for i in range(1, lam.r + 1):
            cells_txt = [
                f"{e:>{width}}{'R' if e in tab.red[i] else 'B'}" for e in lam.row(i)
            ]
            print(" ".join(cells_txt))
        print("l =", list(tab.l))
        print("m =", list(tab.m))
    return 0


def _cmd_kappa(args) -> int:
    lam = _parse_lambda(args.lam)
    bundle = cons.kappa_bundle(lam)
    rep = cons.check_kappa(bundle)
    tab = bundle.tableau
    obj = {
        "lambda": list(lam.parts),
        "nu": list(tab.nu.parts),
        "l": list(tab.l),
        "m": list(tab.m),
        "kappa_window": list(bundle.kappa.window),
        "tau_q_window": list(bundle.tau_q.window),
        "sigma_window": list(bundle.sigma.window),
        "length": rep.length,
        "length_formula": rep.length_formula,
        "dim_g_mod_p": cons.dim_g_mod_p(lam),
        "in_min_reps": rep.in_min_reps,
        "left_stable": rep.left_stable,
        "is_compactification": rep.is_compactification,
    }
    _emit(obj, args.format)
    return 0


def _cmd_varpi(args) -> int:
    lam = _parse_lambda(args.lam)
    wit = cons.varpi_witness(lam)
    w_g, w_p = cons.decompose_varpi(cons.kappa_bundle(lam))
    obj = {
        "lambda": list(lam.parts),
        "varpi_window": list(wit.varpi.window),
        "w_g_window": list(w_g.window),
        "w_p_window": list(w_p.window),
        "b": jsonio.matrix_to_obj(wit.b),
        "c": jsonio.matrix_to_obj(wit.c),
        "lift": jsonio.matrix_to_obj(wit.lift),
    }
    if args.format == "json":
        print(jsonio.dumps(obj))
    else:
        print("varpi =", list(wit.varpi.window))
        print("w_g   =", list(w_g.window))
        print("w_p   =", list(w_p.window))
    return 0


def _cmd_divisor(args) -> int:
    lam = _parse_lambda(args.lam)
    data = cons.divisor_data(lam, args.i)
    obj = {
        "lambda": list(lam.parts),
        "i": data.i,
        "k": data.k,
        "w_window": list(data.w.window),
        "gamma": jsonio.root_to_obj(data.gamma),
        "v_k_window": list(data.v_k.window),
        "v_k_min_window": list(data.v_k_min.window),
        "v_k_min_length": data.v_k_min.length(),
        "dim_g_mod_p": cons.dim_g_mod_p(lam),
        "lift": jsonio.matrix_to_obj(data.lift),
    }
    _emit(obj, args.format)
    return 0


def _cmd_cell(args) -> int:
    text = _read(args.matrix)
    try:
        M = jsonio.matrix_from_obj(json.loads(text))
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise UsageError(f"bad matrix JSON: {exc}") from exc
    w = cells.iwahori_cell(M)
    obj = {"window": list(w.window), "n": w.n}
    if w.is_identity():
        obj["name"] = "e"
    if args.parabolic is not None:
        J = _parse_subset(args.parabolic)
        if any(not 0 <= j < M.n for j in J):
            raise UsageError(f"parabolic indices out of range for n={M.n}")
        obj["parabolic"] = sorted(J)
        obj["min_rep_window"] = list(affine.min_coset_rep(w, J).window)
    _emit(obj, args.format)
    return 0


def _cmd_verify(args) -> int:
    # A bad --out path fails before any suite runs; the file is truncated only
    # when the report is written, so an interrupted run keeps the old report.
    if args.out:
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    start = time.monotonic()
    results = verify.run_suites(names, args.nmax, args.seed)
    duration = time.monotonic() - start
    obj = verify.report_obj(results, args.nmax, args.seed,
                            enforce_coverage=args.suite == "all")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(jsonio.dumps(obj) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    if args.format == "json":
        print(jsonio.dumps(obj))
    else:
        print(verify.report_text(obj, duration))
    return 0 if obj["ok"] else VERIFY_ERROR


# The schema-1 fields that the verdict and the rendering read, by shape: a
# dict's fields, a list's items or a type (the two coverage fields may be absent).
_REPORT = {"schema": int, "suites": [{
    "suite": str, "passed": int, "failed": int,
    "checks": [{"name": str, "passed": int, "failed": int, "witnesses": [str]}]}]}


def _check_shape(value, shape, what: str) -> None:
    """A KeyError or TypeError unless value has the shape; a type must match
    exactly (no bool is an int), and no int is negative."""
    if isinstance(shape, dict):
        for key, inner in shape.items():
            _check_shape(value[key], inner, key)
    elif isinstance(shape, list):
        _check_shape(value, list, what)
        for item in value:
            _check_shape(item, shape[0], f"an item of {what}")
    elif type(value) is not shape or (shape is int and value < 0):
        label = "a non-negative int" if shape is int else f"a {shape.__name__}"
        raise TypeError(f"{what} must be {label}, not {reprlib.repr(value)}")


def _cmd_report(args) -> int:
    text = _read(args.infile)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"bad report JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError("a report must be a JSON object")
    if obj.get("schema") != 1:
        raise UsageError(f"unsupported report schema: {obj.get('schema')!r}")
    try:
        _check_shape(obj, _REPORT, "report")
        _check_shape(obj.get("coverage_missing", []), [str], "coverage_missing")
        _check_shape(obj.get("coverage_enforced", False), bool, "coverage_enforced")
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed report: {type(exc).__name__}: {exc}") from exc
    obj["ok"] = verify.report_ok(obj)
    print(jsonio.dumps(obj) if args.format == "json" else verify.report_text(obj))
    return 0 if obj["ok"] else VERIFY_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affcells",
        description="Exact computations in affine flag combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lambda(p):
        p.add_argument("--lambda", dest="lam", required=True,
                       help="composition, e.g. 1,4,4,2,6")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("tableau", help="rows, colorings, and coordinates")
    add_lambda(p)
    p.set_defaults(func=_cmd_tableau)

    p = sub.add_parser("kappa", help="the dominant-cell element and its parts")
    add_lambda(p)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("varpi", help="the certified cell of the dense nilpotent")
    add_lambda(p)
    p.set_defaults(func=_cmd_varpi)

    p = sub.add_parser("divisor", help="codimension-one stratum data")
    add_lambda(p)
    p.add_argument("--i", type=int, required=True, help="divisor index, 1..r-1")
    p.set_defaults(func=_cmd_divisor)

    p = sub.add_parser("cell", help="locate the Bruhat cell of a matrix")
    p.add_argument("--matrix", required=True, help="path to matrix JSON, or - for stdin")
    p.add_argument("--parabolic", default=None,
                   help="comma-separated simple-root indices, e.g. 0,2")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=tuple(verify.SUITES) + ("all",), default="all")
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="re-render a saved verification report")
    p.add_argument("--in", dest="infile", default="-", help="report JSON path or -")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its own message
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        # argparse turns an option value of exactly "--", given as --opt=--,
        # into [] past `type` and `choices`; no option here takes a list.
        if any(isinstance(v, list) for v in vars(args).values()):
            raise UsageError("an option value cannot be '--'")
        return args.func(args)
    except AffcellsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
