"""The block tableau attached to a composition, with its colorings.

For lambda = (lambda_1, ..., lambda_r) of n, draw a left-aligned tableau
whose i-th row holds the integers d_{i-1}+1, ..., d_i in order.  Column i
then has height nu_i, the i-th column height of the diagram.

Everything below is read off cap_i = max(lambda_k for k < i), with max of
an empty set 0: entry d_{i-1}+c of row i is the top of its column exactly
when c > cap_i.

* ``f[i, j]`` is the j-th entry from the top of column i (1-based).
* ``S1`` collects the topmost entry of each column; ``S2`` is the rest.
* ``red(i)`` holds the #S1(i) smallest entries of row i, namely those
  d_{i-1} < j <= d_i - cap_i; ``blue(i)`` is the rest of the row.  Every
  red entry of a row is smaller than every blue entry of the same row.
* ``l`` lists the red entries increasingly; ``m`` lists the blue entries row
  by row from the bottom row up, each row left to right.
* ``tmap`` lists S2 in the same order as ``m``: row by row from the bottom
  row up, each row left to right.  Row i holds as many S2 entries as blue
  ones, so tmap[k] shares a row with m[k].
* ``iota`` sends each non-top entry f[i, j] to its upstairs neighbor
  f[i, j-1].
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IdentityFailed
from .ops import op
from .partitions import Composition, Partition

__all__ = ["Tableau", "build"]


@dataclass(frozen=True)
class Tableau:
    lam: Composition
    nu: Partition
    s: int
    f: dict
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


@op
def build(lam: Composition) -> Tableau:
    """Construct the tableau in closed form (see the module docstring).

    Two checks compare independent derivations and raise IdentityFailed:
    the column heights of ``f`` against nu, the conjugate partition, and
    #S1(i) read off ``f`` against #red(i) read off cap_i, which is what
    pairs ``tmap`` with ``m`` row by row.
    """
    d, parts = lam.d, lam.parts
    nu = lam.column_partition()
    s = max(parts)
    rows = {i: lam.row(i) for i in range(1, lam.r + 1)}

    f, heights = {}, []
    for c in range(1, s + 1):
        column = [d[i] + c for i, part in enumerate(parts) if part >= c]
        f.update({(c, k): entry for k, entry in enumerate(column, start=1)})
        heights.append(len(column))
    if tuple(heights) != nu.parts:
        raise IdentityFailed("tableau invariant: column height must match the column partition")
    s1 = frozenset(f[(c, 1)] for c in range(1, s + 1))
    s2 = frozenset(range(1, lam.n + 1)) - s1

    red, blue = {}, {}
    for i, row in rows.items():
        cut = max(parts[i - 1] - max(parts[: i - 1], default=0), 0)
        red[i], blue[i] = tuple(row[:cut]), tuple(row[cut:])
        if len(s1.intersection(row)) != len(red[i]):
            raise IdentityFailed(f"tableau invariant: row {i}: #S1 != #red")

    bottom_up = range(lam.r, 0, -1)
    return Tableau(
        lam=lam, nu=nu, s=s, f=f, s1=s1, s2=s2, red=red, blue=blue,
        l=tuple(sorted(j for i in red for j in red[i])),
        m=tuple(j for i in bottom_up for j in blue[i]),
        tmap=tuple(j for i in bottom_up for j in rows[i] if j in s2),
        iota={f[(c, k)]: f[(c, k - 1)] for (c, k) in f if k > 1},
    )
