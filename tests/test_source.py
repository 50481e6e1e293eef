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
