"""Test helpers shared across the test modules: `plant`, the one way a test
plants a fault in the package's source, and `leibniz_det`, a determinant
that shares no code with the eliminations it checks."""

import inspect
import sys
import textwrap
from itertools import permutations


def plant(fn, old, new, **scope):
    """`fn` rebuilt, without its `@op` counter, from its own source with
    `old` replaced by `new`, in a copy of its module's namespace updated by
    `scope`.  Raises unless `old` occurs exactly once."""
    source = textwrap.dedent(inspect.getsource(fn)).removeprefix("@op\n")
    if source.count(old) != 1:
        raise ValueError(f"{old!r} occurs {source.count(old)} times in {fn.__qualname__}")
    namespace = dict(vars(sys.modules[fn.__module__]), **scope)
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


def leibniz_det(rows):
    """det as the signed sum over permutations of the rows' entries, which
    may be exact scalars or Laurent polynomials."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = 1
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total
