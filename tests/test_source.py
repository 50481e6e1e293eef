import ast
from pathlib import Path

import pytest

import affcells

PACKAGE = Path(affcells.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise instead.
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_true_division_outside_the_exact_quotient():
    # `/` on two ints gives a float; coefficient quotients go through
    # `laurent._quo`, which returns an int or a Fraction.  `//` stays allowed.
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found, helpers = [], 0
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_quo":
                helpers += 1
                exempt |= {id(n) for n in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div) and id(node) not in exempt]
    assert helpers == 1
    assert found == []


def test_verify_has_one_failure_path():
    # An error in a suite becomes a failed check in one place, CheckResult.guard,
    # and checks are declared through suite.check, never built by a suite.
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    check_result = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "CheckResult")
    guard = next(node for node in check_result.body
                 if isinstance(node, ast.FunctionDef) and node.name == "guard")
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1 and handlers[0] in set(ast.walk(guard))
    found = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("suite_"):
            found += [f"{fn.name}:{node.lineno}" for node in ast.walk(fn)
                      if isinstance(node, ast.Try)
                      or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id in ("SuiteResult", "CheckResult"))]
    assert found == []


def _eager_witness_text(source):
    """Lines of the suite_* functions in `source` that build text off a
    failure path: an f-string, or a `+` or `%` with a string literal,
    outside a lambda and outside the else arm of `"" if ... else ...`."""
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("suite_")):
            continue
        lazy = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Lambda):
                lazy |= {id(sub) for sub in ast.walk(node.body)}
            elif isinstance(node, ast.IfExp) and ast.unparse(node.body) == "''":
                lazy |= {id(sub) for sub in ast.walk(node.orelse)}
        found += [node.lineno for node in ast.walk(fn) if id(node) not in lazy and (
            isinstance(node, ast.JoinedStr)
            or (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod))
                and any(isinstance(side, ast.Constant) and isinstance(side.value, str)
                        for side in (node.left, node.right))))]
    return found


VERIFY_SOURCE = (PACKAGE / "verify.py").read_text(encoding="utf-8")


def test_suites_format_witnesses_only_on_failure():
    # CheckResult takes a witness as a callable and calls it only when the
    # check fails, so a suite builds no text for a check that passes.
    assert _eager_witness_text(VERIFY_SOURCE) == []


@pytest.mark.parametrize("old, new", [
    # a per-iteration tag, formatted eagerly and passed by name
    ('tag = lambda: f"n={n}, w={w.window}, (a,b)=({a},{b})"',
     'tag = f"n={n}, w={w.window}, (a,b)=({a},{b})"'),
    # an f-string literal as the witness argument
    ('lambda: f"window {w.window}, s_{i}"', 'f"window {w.window}, s_{i}"'),
    # a witness extended by concatenation
    ('lambda: f"{tag()} commutation"', 'tag + " commutation"'),
])
def test_an_eager_witness_trips_the_rule(old, new):
    assert VERIFY_SOURCE.count(old) == 1
    assert _eager_witness_text(VERIFY_SOURCE.replace(old, new))


def test_lattices_make_no_t_shift():
    # A lattice basis entry carries its power of t as an offset, so multiplying
    # by t^k is index arithmetic; elsewhere it is `M * LaurentPoly.t(k)`.  Only
    # `laurent.py` calls `LaurentPoly.shift`, and nothing calls the removed
    # `LaurentMatrix.scale_t`.
    paths = sorted(PACKAGE.rglob("*.py"))
    assert any(path.name == "lattices.py" for path in paths)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and (node.func.attr == "scale_t"
                       or (node.func.attr == "shift" and path.name != "laurent.py"))]
    assert found == []


def test_lattice_vectors_have_one_form():
    # The engine keeps a vector as one {chain index: int} dict; columns come
    # in through _flat as the integer term dicts of laurent._integral, so
    # lattices.py reads no polynomial's terms.
    tree = ast.parse((PACKAGE / "lattices.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_terms"] == []


def test_lattice_vectors_never_leave_as_columns():
    # lattices.py imports no raw Laurent constructor, so it builds no Laurent
    # object from a stored vector: M * L is from_basis of M times a basis of L.
    tree = ast.parse((PACKAGE / "lattices.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_integral" in imported and not imported & {"_matrix", "_raw"}


def test_lattice_reduction_divides_no_coefficient():
    # Every lattice vector holds ints, so a reduction step reads its factors
    # a and b off math.gcd; no coefficient quotient (and no Fraction) is made.
    assert not [c for c in _callers("_quo") if c.startswith("lattices.")]
    assert "lattices._reduce" in _callers("gcd")


def test_cli_has_one_failure_path():
    # Commands raise usage errors; run alone writes the `error:` line and picks
    # the exit code.  The one SystemExit left is argparse's, caught in run, so
    # nothing in cli.py raises one.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    in_run = {id(node) for node in ast.walk(run)}

    def inside_run(match):
        return [id(node) in in_run for node in ast.walk(tree) if match(node)]

    assert inside_run(lambda node: isinstance(node, ast.Name)
                      and node.id == "SystemExit") == [True]
    assert inside_run(lambda node: isinstance(node, ast.Attribute)
                      and node.attr == "stderr") == [True]
    assert inside_run(lambda node: isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.startswith("error:")) == [True]
    handlers = [node for node in ast.walk(run) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(node.type) for node in handlers] == ["SystemExit", "AffcellsError"]


def _callers(name):
    """Where the package calls `name(...)`: module.function or
    module.Class.method of each call, sorted."""
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}
        for top in tree.body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                owner_name = getattr(node, "name", "module level")
                if node is not top:
                    owner_name = f"{top.name}.{owner_name}"
                owner.update((id(sub), owner_name) for sub in ast.walk(node))
        callers += [f"{path.stem}.{owner[id(node)]}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and name in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))]
    return sorted(callers)


def test_laurent_matrices_are_coerced_at_one_boundary():
    # Outside input is coerced by LaurentMatrix(...) in the two readers of it;
    # everything the package builds itself goes through laurent._matrix, and
    # no LaurentMatrix classmethod builds through cls(...), i.e. __init__.
    assert _callers("LaurentMatrix") == ["jsonio.matrix_from_obj",
                                         "lattices.Lattice.from_columns"]

    tree = ast.parse((PACKAGE / "laurent.py").read_text(encoding="utf-8"))
    matrix = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "LaurentMatrix")
    classmethods = [node for node in matrix.body if isinstance(node, ast.FunctionDef)
                    and any(ast.unparse(d) == "classmethod" for d in node.decorator_list)]
    assert len(classmethods) == 4
    assert [f"{fn.name}:{node.lineno}" for fn in classmethods for node in ast.walk(fn)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "cls"] == []


def test_laurent_polys_are_coerced_at_one_boundary():
    # Outside input is coerced by LaurentPoly(...) in the one reader of it;
    # the package builds its own polynomials, already normalized, with
    # laurent._raw or the LaurentPoly classmethods.
    assert _callers("LaurentPoly") == ["jsonio.matrix_from_obj"]


def test_windows_are_checked_at_one_boundary():
    # AffinePermutation._perm builds a window with no checks, so only the five
    # operations closed on valid windows call it, and nothing else names it;
    # every other window goes through AffinePermutation(...), which checks it.
    closed = ["affine.AffinePermutation.__mul__", "affine.AffinePermutation.inverse",
              "affine.identity", "affine.reflection", "affine.simple_reflection"]
    callers = _callers("_perm")
    assert sorted(set(callers)) == closed
    named = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if getattr(node, "id", None) == "_perm" or getattr(node, "attr", None) == "_perm"]
    assert len(named) == len(callers)


def test_roots_are_checked_at_one_boundary():
    # Root._root builds a root with no checks, so only act_on_root, which
    # maps a root to a root, calls it, and nothing else names it.
    assert _callers("_root") == ["affine.act_on_root"]
    named = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if getattr(node, "id", None) == "_root" or getattr(node, "attr", None) == "_root"]
    assert len(named) == 1


def test_frames_are_not_inverted_by_elimination():
    # random_conjugate_frame builds g^-1 alongside g from the inverse factors,
    # and mv_flag tests X F_i <= F_{i-1} by vector_rank on the frame's
    # columns: neither the samplers nor mv_flag run laurent.invert.
    tree = ast.parse((PACKAGE / "sampling.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "_addmul" in imported and "invert" not in imported
    callers = _callers("invert")
    assert "verify.suite_varpi" in callers
    assert [c for c in callers if c.startswith("sampling.") or c == "cells.mv_flag"] == []


def test_only_the_varpi_suite_inverts():
    # The samplers build each inverse a suite needs alongside the matrix, so
    # in verify.py laurent.invert runs only on the varpi identity under test.
    assert [c for c in _callers("invert") if c.startswith("verify.")] == ["verify.suite_varpi"]


def _function(module, name):
    """The top-level function `name` of the package module `module`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _laurent_imports(module):
    """The names `module` imports from laurent."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "laurent"
            for alias in node.names}


def _body(fn):
    """Every node of fn's body, without its signature's annotations."""
    return [node for stmt in fn.body for node in ast.walk(stmt)]


def test_the_varpi_inverse_series_runs_on_scalar_rows():
    # suite_varpi sums t^-k Z^k over the powers partitions.nilpotent_powers
    # returns as {column: scalar} rows, so the oracle shares no code with
    # the invert it checks: the series loop calls only that routine and dict
    # and list methods, and names nothing imported from laurent and none of
    # the suite's Laurent objects past Z.  The routine is a loop over
    # constant_rows and row_product; the three name nothing imported from
    # laurent but row_product's scalar normalizer _as_scalar, and call only
    # builtins, each other and dict and list methods, so none makes a
    # LaurentMatrix product or calls det, invert, the Bareiss step,
    # _addmul or _quo.
    laurent = _laurent_imports("verify")
    suite = _function("verify", "suite_varpi")
    bound = {node.id for node in ast.walk(suite)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    laurent_objects = {"wit", "inv", "d"}  # the witness, M^-1 and det M
    assert {"det", "invert", "_matrix"} <= laurent and laurent_objects <= bound
    (loop,) = [node for node in ast.walk(suite) if isinstance(node, ast.For)
               and "nilpotent_powers" in ast.unparse(node.iter)]
    assert ast.unparse(loop.iter) == "enumerate(parts.nilpotent_powers(wit.z), 1)"
    body = _body(loop)
    names = {node.id for node in body if isinstance(node, ast.Name)}
    assert "series" in names and not names & (laurent | laurent_objects)
    calls = [node.func for node in body if isinstance(node, ast.Call)]
    assert {ast.unparse(f) for f in calls if isinstance(f, ast.Name)} <= {"zip"}
    assert {f.attr for f in calls if isinstance(f, ast.Attribute)} <= {"items", "get", "append"}

    laurent = _laurent_imports("partitions")
    assert {"LaurentMatrix", "_as_scalar", "_quo"} <= laurent
    callees = {
        "nilpotent_powers": {"constant_rows", "row_product", "any", "len", "NotNilpotent"},
        "constant_rows": {"enumerate", "len"},
        "row_product": {"_as_scalar"},
    }
    for name, allowed in callees.items():
        routine = _body(_function("partitions", name))
        names = {node.id for node in routine if isinstance(node, ast.Name)}
        assert not names & (laurent - {"_as_scalar"})
        used = names | {node.attr for node in routine if isinstance(node, ast.Attribute)}
        assert not {n for n in used if n in ("det", "invert", "_addmul", "_quo")
                    or n.startswith("_bareiss")}
        calls = [node.func for node in routine if isinstance(node, ast.Call)]
        assert {ast.unparse(f) for f in calls if isinstance(f, ast.Name)} <= allowed
        assert {f.attr for f in calls if isinstance(f, ast.Attribute)} <= {"items", "get", "append"}


def test_nilpotent_powers_are_formed_in_one_place():
    # partitions.nilpotent_powers is the one loop over the powers of a
    # constant nilpotent: jordan_type, psi_map and suite_varpi call it, and
    # none of them multiplies anything itself (so forms no LaurentMatrix
    # product), names LaurentMatrix or calls row_product.
    callers = ["cells.psi_map", "partitions.jordan_type", "verify.suite_varpi"]
    assert _callers("nilpotent_powers") == callers
    found = []
    for caller in callers:
        body = _body(_function(*caller.split(".")))
        found += [f"{caller}:{node.lineno}" for node in body
                  if (isinstance(node, ast.BinOp)
                      and isinstance(node.op, (ast.Mult, ast.MatMult, ast.Pow)))
                  or (isinstance(node, ast.Name) and node.id in ("LaurentMatrix", "row_product"))]
    assert found == []


def test_only_the_varpi_suite_builds_the_varpi_certificate():
    # The other suites read varpi off the kappa bundle (decompose_varpi), so
    # none builds a whole certificate just to read its window.
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    owners = {getattr(top, "name", "module level") for top in tree.body
              for node in ast.walk(top)
              if (isinstance(node, ast.Name) and node.id == "varpi_witness")
              or (isinstance(node, ast.Attribute) and node.attr == "varpi_witness")}
    assert owners == {"suite_varpi"}


def test_every_module_has_a_readme_row():
    # The README module table names each module as | `affcells.<name>` |.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {line.split("`")[1] for line in readme.splitlines() if line.startswith("| `affcells.")}
    modules = {f"affcells.{path.stem}" for path in PACKAGE.glob("*.py")
               if path.stem not in ("__init__", "__main__")}
    assert sorted(modules - rows) == []


def test_constant_matrices_have_one_elimination():
    # vector_rank and scalar_det read their answers off partitions._echelon,
    # the one fraction-free elimination on sparse rows of exact scalars, which
    # divides exactly in the integers and so never calls laurent._quo.
    loops = (ast.For, ast.While, ast.comprehension)
    for name in ("vector_rank", "scalar_det"):
        body = _body(_function("partitions", name))
        assert not any(isinstance(node, loops) for node in body)
        assert any(isinstance(node, ast.Name) and node.id == "_echelon" for node in body)
    assert "partitions._echelon" not in _callers("_quo")


def test_constant_matrices_have_one_form():
    # A constant matrix is held as sparse rows {column: c} only: in
    # partitions.py constant_rows is the one reader of a polynomial's terms,
    # and nilpotent_powers is a loop over constant_rows and row_product with
    # no loop of its own over entries.
    tree = ast.parse((PACKAGE / "partitions.py").read_text(encoding="utf-8"))
    readers = {fn.name for fn in tree.body for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "_terms"}
    assert readers == {"constant_rows"}
    body = _body(_function("partitions", "nilpotent_powers"))
    called = {ast.unparse(node.func) for node in body if isinstance(node, ast.Call)}
    assert {"constant_rows", "row_product"} <= called
    assert not any(isinstance(node, (ast.For, ast.comprehension)) for node in body)


def test_tests_plant_faults_in_one_place():
    # A test plants a fault through planting.plant, the one exec under tests/.
    tests = Path(__file__).resolve().parent
    found = [path.name for path in sorted(tests.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "exec"]
    assert found == ["planting.py"]


def test_the_bareiss_step_has_one_row_update_loop():
    # laurent._bareiss_step updates the rows in one loop over `rows`: a
    # pivot equal to a previous +-t^s is data for that loop (no piv factor,
    # fewer columns, a copied entry), not a second copy of it, so every
    # _addmul of the step sits inside the loop.
    step = _function("laurent", "_bareiss_step")
    loops = [node for node in _body(step) if isinstance(node, (ast.For, ast.comprehension))
             and ast.unparse(node.iter) == "rows"]
    assert len(loops) == 1
    inside = set(map(id, ast.walk(loops[0])))
    calls = [node for node in _body(step) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "_addmul"]
    assert calls and all(id(node) in inside for node in calls)
