"""The block tableau attached to a composition, with its colorings.

For lambda = (lambda_1, ..., lambda_r) of n, draw a left-aligned tableau
whose i-th row holds the integers d_{i-1}+1, ..., d_i in order.  Column i
then has height nu_i, the i-th column height of the diagram.

Coordinates and colorings:

* ``f[i, j]`` is the j-th entry from the top of column i (1-based).
* ``S1`` collects the topmost entry of each column; ``S2`` is the rest.
* ``red(i)`` holds the #S1(i) smallest entries of row i, namely those
  d_{i-1} < j <= d_i - max(lambda_k for k < i), with max of an empty set 0;
  ``blue(i)`` is the rest of the row.  Every red entry of a row is smaller
  than every blue entry of the same row.
* ``l`` lists the red entries increasingly; ``m`` lists the blue entries row
  by row from the bottom row up, each row left to right.
* ``tmap`` enumerates S2 so that tmap[k] shares a row with m[k]; within each
  row the S2 entries are matched to the row's m-positions in increasing
  order, which makes the enumeration deterministic.
* ``iota`` sends each non-top entry f[i, j] to its upstairs neighbor
  f[i, j-1].
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IdentityFailed
from .partitions import Composition, Partition

__all__ = ["Tableau", "build"]


@dataclass(frozen=True)
class Tableau:
    lam: Composition
    nu: Partition
    s: int
    f: dict
    column_of: dict
    s1: frozenset
    s2: frozenset
    red: dict
    blue: dict
    l: tuple[int, ...]
    m: tuple[int, ...]
    tmap: tuple[int, ...]
    iota: dict

    @property
    def n(self) -> int:
        return self.lam.n

    def row_of(self, entry: int) -> int:
        d = self.lam.d
        for i in range(1, self.lam.r + 1):
            if d[i - 1] < entry <= d[i]:
                return i
        raise ValueError(f"entry {entry} outside 1..{self.n}")

    def rows(self) -> dict[int, tuple[int, ...]]:
        return {i: tuple(self.lam.row(i)) for i in range(1, self.lam.r + 1)}


def build(lam: Composition) -> Tableau:
    """Construct the tableau and verify its structural invariants."""
    n = lam.n
    d = lam.d
    nu = lam.column_partition()
    s = max(lam.parts)

    f = {}
    column_of = {}
    for col in range(1, s + 1):
        depth = 0
        for row_idx, lam_i in enumerate(lam.parts, start=1):
            if lam_i >= col:
                depth += 1
                entry = d[row_idx - 1] + col
                f[(col, depth)] = entry
                column_of[entry] = (col, depth)
        _require(depth == nu.part(col), "column height must match the column partition")

    s1 = frozenset(f[(col, 1)] for col in range(1, s + 1))
    s2 = frozenset(range(1, n + 1)) - s1

    red = {}
    blue = {}
    for i in range(1, lam.r + 1):
        cap = max(lam.parts[: i - 1], default=0)
        red[i] = tuple(j for j in lam.row(i) if j <= d[i] - cap)
        blue[i] = tuple(j for j in lam.row(i) if j > d[i] - cap)

    l = tuple(sorted(j for i in red for j in red[i]))
    m = tuple(j for i in range(lam.r, 0, -1) for j in blue[i])

    # Row-aligned enumeration of S2: within each row, pair the sorted S2
    # entries with the sorted m-positions of that row.
    s2_by_row = {i: sorted(e for e in s2 if d[i - 1] < e <= d[i]) for i in range(1, lam.r + 1)}
    tmap = []
    used = {i: 0 for i in s2_by_row}
    for entry in m:
        i = next(r for r in range(1, lam.r + 1) if d[r - 1] < entry <= d[r])
        tmap.append(s2_by_row[i][used[i]])
        used[i] += 1
    tmap = tuple(tmap)

    iota = {
        f[(col, depth)]: f[(col, depth - 1)]
        for (col, depth) in f
        if depth > 1
    }

    tab = Tableau(
        lam=lam, nu=nu, s=s, f=dict(f), column_of=dict(column_of),
        s1=s1, s2=s2, red=dict(red), blue=dict(blue), l=l, m=m,
        tmap=tmap, iota=dict(iota),
    )
    _check(tab)
    return tab


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise IdentityFailed(f"tableau invariant: {what}")


def _check(tab: Tableau) -> None:
    lam = tab.lam
    n = lam.n
    all_red = {j for i in tab.red for j in tab.red[i]}
    all_blue = {j for i in tab.blue for j in tab.blue[i]}
    _require(all_red | all_blue == set(range(1, n + 1)) and not (all_red & all_blue),
             "red and blue partition 1..n")
    _require(tab.s1 | tab.s2 == set(range(1, n + 1)) and not (tab.s1 & tab.s2),
             "S1 and S2 partition 1..n")
    for i in range(1, lam.r + 1):
        s1_i = [e for e in tab.s1 if e in lam.row(i)]
        _require(len(s1_i) == len(tab.red[i]), f"row {i}: #S1 != #red")
        if tab.red[i] and tab.blue[i]:
            _require(max(tab.red[i]) < min(tab.blue[i]), f"row {i}: red precedes blue")
    _require(list(tab.l) == sorted(tab.l), "l is increasing")
    _require(len(tab.tmap) == len(tab.m) == len(tab.s2), "t, m and S2 have one length")
    _require(set(tab.tmap) == tab.s2, "t enumerates S2")
    _require(all(tab.iota[e] == tab.f[(c, k - 1)] for e, (c, k) in
                 ((e, tab.column_of[e]) for e in tab.s2)),
             "iota moves one box up")
    _require({tab.f[ck] for ck in tab.f if ck[1] > 1} == set(tab.s2), "non-top entries are S2")
