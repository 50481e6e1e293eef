"""Seeded inputs for the `locate` workload and the per-layer probe.

Matrices are built here in plain Python, not with `affcells.sampling`, so a
rewrite of the library's samplers cannot change what the benchmark feeds in.
A polynomial is a dict {exponent: Fraction}; a matrix is a list of rows.

A locate case is M = b1 * P_w * b2 with P_w the monomial matrix of a random
affine permutation w (t^{c_i} at (sigma(i), i), where w(i) = sigma(i) - c_i n)
and b1, b2 products of Iwahori generators, so iwahori_cell(M) must return w.
"""

from __future__ import annotations

import random
from fractions import Fraction

LOCATE_SIZES = (4, 6, 8)
_SMALL = (-2, -1, 1, 2)
_UNITS = (Fraction(2), Fraction(1, 2), Fraction(-1))


def _padd(p: dict, q: dict, a) -> dict:
    """p + a * q."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + a * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _shift(p: dict, k: int) -> dict:
    return {e + k: c for e, c in p.items()}


def random_window(rng: random.Random, n: int, spread: int) -> tuple[int, ...]:
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    c = [rng.randint(-spread, spread) for _ in range(n - 1)]
    c.append(-sum(c))
    return tuple(sigma[i] - c[i] * n for i in range(n))


def monomial_matrix(window: tuple[int, ...]) -> list[list[dict]]:
    n = len(window)
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for i, wi in enumerate(window):
        s = (wi - 1) % n + 1
        rows[s - 1][i] = {(s - wi) // n: Fraction(1)}
    return rows


def _iwahori_op(rng: random.Random, n: int, max_degree: int):
    """One Iwahori generator: (i, j, scalar, t-degree) for I + a t^d E_ij
    (d >= 1 below the diagonal), or (i, j, u, None) for the diagonal pair
    u E_ii + u^-1 E_jj."""
    i, j = rng.sample(range(n), 2)
    if rng.randrange(4) == 0:
        return i, j, rng.choice(_UNITS), None
    low = 1 if i > j else 0
    return i, j, Fraction(rng.choice(_SMALL)), rng.randint(low, max_degree)


def apply_left(m: list[list[dict]], op) -> None:
    """m <- g * m for the Iwahori generator g: a row operation."""
    i, j, a, d = op
    if d is None:
        m[i] = [{e: c * a for e, c in p.items()} for p in m[i]]
        m[j] = [{e: c / a for e, c in p.items()} for p in m[j]]
    else:
        m[i] = [_padd(p, _shift(q, d), a) for p, q in zip(m[i], m[j])]


def apply_right(m: list[list[dict]], op) -> None:
    """m <- m * g for the Iwahori generator g: a column operation."""
    i, j, a, d = op
    for row in m:
        if d is None:
            row[i] = {e: c * a for e, c in row[i].items()}
            row[j] = {e: c / a for e, c in row[j].items()}
        else:
            row[j] = _padd(row[j], _shift(row[i], d), a)


def iwahori_conjugate(rng, window, ops: int, max_degree: int) -> list[list[dict]]:
    """b1 * P_w * b2 with b1 and b2 products of `ops` Iwahori generators."""
    n = len(window)
    m = monomial_matrix(window)
    for _ in range(ops):
        apply_left(m, _iwahori_op(rng, n, max_degree))
        apply_right(m, _iwahori_op(rng, n, max_degree))
    return m


def _key(m) -> tuple:
    return tuple(tuple(sorted(p.items())) for row in m for p in row)


def locate_cases(seed: int, chunk: int, per_size: int) -> list[tuple[list[list[dict]], tuple[int, ...]]]:
    """Chunk `chunk` of the seed's cases: distinct (matrix, window) pairs,
    sizes interleaved 4, 6, 8, 4, ..."""
    rng = random.Random(f"locate:{seed}:{chunk}")
    seen = set()
    cases = []
    while len(cases) < per_size * len(LOCATE_SIZES):
        n = LOCATE_SIZES[len(cases) % len(LOCATE_SIZES)]
        window = random_window(rng, n, spread=5)
        m = iwahori_conjugate(rng, window, ops=3 * n // 2, max_degree=1)
        key = _key(m)
        if key not in seen:
            seen.add(key)
            cases.append((m, window))
    return cases


def probe_matrices(seed: int, per_size: int) -> dict[int, list[list[list[dict]]]]:
    """Unit-determinant matrices b * g at n = 4, 6, 8 for the ms-per-call
    table: b a product of Iwahori generators of t-degree at most one and g
    a product of constant elementary matrices."""
    rng = random.Random(f"probe:{seed}")
    out = {}
    for n in LOCATE_SIZES:
        mats = []
        for _ in range(per_size):
            m = monomial_matrix(tuple(range(1, n + 1)))
            for _ in range(2 * n + 2):
                apply_right(m, _iwahori_op(rng, n, max_degree=1))
            for _ in range(2 * n):
                i, j = rng.sample(range(n), 2)
                apply_right(m, (i, j, Fraction(rng.choice(_SMALL)), 0))
            mats.append(m)
        out[n] = mats
    return out


def input_properties(cases) -> dict:
    """The properties locate's cost depends on: size mix, largest
    |exponent|, and terms per entry."""
    sizes: dict = {}
    max_exp = 0
    terms = []
    for m, window in cases:
        sizes[len(window)] = sizes.get(len(window), 0) + 1
        for row in m:
            for p in row:
                terms.append(len(p))
                max_exp = max([max_exp] + [abs(e) for e in p])
    return {
        "matrices": len(cases),
        "n_mix": {str(k): v for k, v in sorted(sizes.items())},
        "max_abs_exponent": max_exp,
        "terms_per_entry_mean": round(sum(terms) / len(terms), 3),
        "terms_per_entry_max": max(terms),
    }


def reference_work() -> None:
    """A fixed piece of plain-Python exact arithmetic (about 10 ms here),
    timed between operations to gauge the machine's current speed."""
    rng = random.Random(0)
    for n in (6, 8):
        iwahori_conjugate(rng, tuple(range(1, n + 1)), ops=4 * n, max_degree=2)
