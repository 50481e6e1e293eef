"""Partitions, compositions, dominance order, and Jordan types.

A partition is a weakly decreasing tuple of positive integers with implicit
zero-extension.  A composition is any tuple of positive integers; its prefix
sums d_0 = 0 < d_1 < ... < d_r = n cut {1, ..., n} into consecutive blocks.

Jordan types of constant nilpotent matrices are computed by exact ranks of
powers over the rationals (fraction-free elimination never enters: Fraction
arithmetic is already exact).  `vector_rank` is the one exact rank routine of
the package; `cells.mv_flag` uses it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import NotNilpotent, SizeMismatch
from .laurent import LaurentMatrix

__all__ = [
    "Partition",
    "Composition",
    "conjugate",
    "dominance_leq",
    "jordan_type",
    "constant_rank",
    "vector_rank",
    "partitions_of",
    "compositions_of",
]


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"parts must weakly decrease: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based part with zero-extension."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


@dataclass(frozen=True)
class Composition:
    """A composition lambda of n, with block bounds d_i = lambda_1 + ... + lambda_i."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p <= 0 for p in self.parts):
            raise ValueError(f"composition parts must be positive: {self.parts}")

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Composition":
        return cls(tuple(parts))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def d(self) -> tuple[int, ...]:
        """Prefix sums (d_0, d_1, ..., d_r) with d_0 = 0 and d_r = n."""
        out = [0]
        for p in self.parts:
            out.append(out[-1] + p)
        return tuple(out)

    def row(self, i: int) -> range:
        """The i-th consecutive block of {1, ..., n}, 1-based."""
        d = self.d
        return range(d[i - 1] + 1, d[i] + 1)

    def sorted_partition(self) -> Partition:
        return Partition(tuple(sorted(self.parts, reverse=True)))

    def column_partition(self) -> Partition:
        """The conjugate of the decreasing rearrangement; column heights."""
        return conjugate(self.sorted_partition())

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


def conjugate(mu: Partition) -> Partition:
    """Transpose of the Young diagram: entry i counts parts >= i."""
    if not mu.parts:
        return Partition(())
    return Partition(tuple(sum(1 for p in mu.parts if p >= i) for i in range(1, mu.parts[0] + 1)))


def dominance_leq(mu: Partition, nu: Partition) -> bool:
    """Prefix-sum comparison; both partitions must have the same total."""
    if mu.n != nu.n:
        raise SizeMismatch(f"totals {mu.n} and {nu.n}")
    acc_mu = acc_nu = 0
    for i in range(1, max(len(mu), len(nu)) + 1):
        acc_mu += mu.part(i)
        acc_nu += nu.part(i)
        if acc_mu > acc_nu:
            return False
    return True


def vector_rank(vectors) -> int:
    """Exact rank of a family of equal-length Fraction vectors, by forward
    Gaussian elimination (no back substitution)."""
    a = [list(v) for v in vectors]
    rows = len(a)
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = a[rank][col]
        for r in range(rank + 1, rows):
            if a[r][col]:
                factor = a[r][col] / inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def constant_rank(M: LaurentMatrix) -> int:
    """Exact rank of a constant matrix."""
    if not M.is_constant():
        raise ValueError("constant_rank expects a constant matrix")
    return vector_rank([p.coeff(0) for p in row] for row in M.rows)


def jordan_type(X: LaurentMatrix) -> Partition:
    """Jordan type of a constant nilpotent matrix, by ranks of powers.

    The conjugate partition has i-th entry dim ker X^i - dim ker X^{i-1}.
    Raises NotNilpotent when X is not constant or X^n != 0.
    """
    if not X.is_constant():
        raise NotNilpotent("matrix is not constant")
    n = X.n
    ranks = [n]
    power = LaurentMatrix.identity(n)
    for _ in range(n):
        power = power * X
        ranks.append(constant_rank(power))
    if ranks[-1] != 0:
        raise NotNilpotent("X^n is not zero")
    diffs = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    cols = tuple(d for d in diffs if d > 0)
    if any(cols[i] < cols[i + 1] for i in range(len(cols) - 1)):
        raise NotNilpotent("kernel dimensions not monotone; not nilpotent")
    return conjugate(Partition(cols)) if cols else Partition((1,) * n if n else ())


def partitions_of(n: int, _max: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first within each."""
    if n == 0:
        yield Partition(())
        return
    top = n if _max is None else min(n, _max)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + rest.parts)


def compositions_of(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, by choosing cut points."""
    if n == 0:
        return
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0,) + cuts + (n,)
            yield Composition(tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)))
