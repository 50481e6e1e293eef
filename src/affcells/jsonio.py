"""Shared JSON formats.

Matrix: ``{"n": int, "entries": [cell, ...]}`` with one cell per position in
row-major order; a cell is a list of term triples ``[exp, num, den]`` and the
empty list is zero.  Root: ``{"i": int, "j": int}``.  Every number is a JSON integer; n >= 1.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .affine import Root
from .laurent import LaurentMatrix, LaurentPoly

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "root_to_obj",
    "dumps",
]


def matrix_to_obj(M: LaurentMatrix) -> dict:
    cells = []
    for row in M.rows:
        for p in row:
            cells.append(
                [[e, c.numerator, c.denominator] for e, c in sorted(p.terms.items())]
            )
    return {"n": M.n, "entries": cells}


def _int(value) -> int:
    if type(value) is not int:  # no bool, float or string coercion
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def matrix_from_obj(obj: dict) -> LaurentMatrix:
    n = _int(obj["n"])
    cells = obj["entries"]
    if n < 1 or len(cells) != n * n:
        raise ValueError(f"expected n >= 1 and n * n cells, got n = {n}, {len(cells)} cells")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for exp, num, den in cells[i * n + j]:
                exp = _int(exp)
                terms[exp] = terms.get(exp, Fraction(0)) + Fraction(_int(num), _int(den))
            row.append(LaurentPoly(terms))
        rows.append(row)
    return LaurentMatrix(rows)


def root_to_obj(alpha: Root) -> dict:
    return {"i": alpha.i, "j": alpha.j}


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, stable separators."""
    return json.dumps(obj, indent=2, sort_keys=True)
