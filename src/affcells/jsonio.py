"""Shared JSON formats.

Matrix: ``{"n": int, "entries": [cell, ...]}`` with one cell per position in
row-major order; a cell is a list of term triples ``[exp, num, den]`` and the
empty list is zero.  Window: ``{"n": int, "window": [int, ...]}``.  Root:
``{"i": int, "j": int}``.  Rational coefficients only.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .affine import AffinePermutation, Root
from .laurent import LaurentMatrix, LaurentPoly

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "window_to_obj",
    "window_from_obj",
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


def matrix_from_obj(obj: dict) -> LaurentMatrix:
    n = int(obj["n"])
    cells = obj["entries"]
    if len(cells) != n * n:
        raise ValueError(f"expected {n * n} cells, got {len(cells)}")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for exp, num, den in cells[i * n + j]:
                terms[int(exp)] = terms.get(int(exp), Fraction(0)) + Fraction(int(num), int(den))
            row.append(LaurentPoly(terms))
        rows.append(row)
    return LaurentMatrix(rows)


def window_to_obj(w: AffinePermutation) -> dict:
    return {"n": w.n, "window": list(w.window)}


def window_from_obj(obj: dict) -> AffinePermutation:
    return AffinePermutation(tuple(int(v) for v in obj["window"]))


def root_to_obj(alpha: Root) -> dict:
    return {"i": alpha.i, "j": alpha.j}


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, stable separators."""
    return json.dumps(obj, indent=2, sort_keys=True)
