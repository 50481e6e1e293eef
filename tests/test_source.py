import ast
from pathlib import Path

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
