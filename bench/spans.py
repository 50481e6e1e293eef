"""Spans and call counters patched onto affcells' public functions.

A function is reached through every module that imported it
(`from .laurent import det` leaves a `det` binding in cells, constructions,
verify, ...), so `patch` replaces every binding of the original object in
every loaded `affcells` module, not only the one in its defining module.

Two kinds of wrapper exist and are never mixed in one process:

* `SpanTracer` times each call and keeps self time (the span minus its child
  spans) per name.
* `CallCounter` only counts calls, for functions called millions of times
  (LaurentPoly arithmetic), whose spans would dominate the timing.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# (span name, module, attribute); "Class.method" attributes patch the class.
SPAN_TARGETS = [
    ("laurent.invert", "laurent", "invert"),
    ("laurent.det", "laurent", "det"),
    ("laurent.matmul", "laurent", "LaurentMatrix.__mul__"),
    ("laurent.borel_membership", "laurent", "borel_membership"),
    ("lattices.from_columns", "lattices", "Lattice.from_columns"),
    ("lattices.contains", "lattices", "Lattice.contains"),
    ("lattices.validate", "lattices", "AffineFlag.validate"),
    ("cells.iwahori_cell", "cells", "iwahori_cell"),
    ("cells.parabolic_cell", "cells", "parabolic_cell"),
    ("cells.phi_map", "cells", "phi_map"),
    ("cells.psi_map", "cells", "psi_map"),
    ("cells.mv_flag", "cells", "mv_flag"),
    ("sampling.random_iwahori", "sampling", "random_iwahori"),
    ("sampling.random_finite_borel", "sampling", "random_finite_borel"),
    ("sampling.random_sl", "sampling", "random_sl"),
    ("sampling.random_nilradical", "sampling", "random_nilradical"),
    ("sampling.random_parabolic", "sampling", "random_parabolic"),
    ("constructions.kappa_bundle", "constructions", "kappa_bundle"),
    ("constructions.varpi_witness", "constructions", "varpi_witness"),
    ("constructions.decompose_varpi", "constructions", "decompose_varpi"),
    ("constructions.check_kappa", "constructions", "check_kappa"),
    ("constructions.divisor_data", "constructions", "divisor_data"),
    ("constructions.divisor_witnesses", "constructions", "divisor_witnesses"),
    ("partitions.jordan_type", "partitions", "jordan_type"),
    ("tableau.build", "tableau", "build"),
    ("cli.run", "cli", "run"),
    ("jsonio.dumps", "jsonio", "dumps"),
]

COUNT_TARGETS = [
    ("laurent.poly_mul", "laurent", "LaurentPoly.__mul__"),
    ("laurent.poly_divmod", "laurent", "poly_divmod"),
    ("affine.bruhat_leq", "affine", "bruhat_leq"),
    ("affine.min_coset_rep", "affine", "min_coset_rep"),
    ("affine.length", "affine", "AffinePermutation.length"),
]

# Spans that also record how many distinct first arguments they saw.
DISTINCT_ARGS = {"constructions.kappa_bundle"}

SUITES = ("lengths", "bruhat", "kappa", "varpi", "divisors", "embeddings")


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "affcells" or name.startswith("affcells."))]


def patch(module: str, attr: str, make_wrapper) -> None:
    """Replace `module.attr` by make_wrapper(original) at every binding."""
    mod = sys.modules[f"affcells.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make_wrapper(raw.__func__)))
            return
        wrapper = make_wrapper(raw)
        # LaurentPoly.__rmul__ is the same function as __mul__.
        for name, value in list(cls.__dict__.items()):
            if value is raw:
                setattr(cls, name, wrapper)
        return
    original = getattr(mod, attr)
    wrapper = make_wrapper(original)
    for m in _modules():
        for name, value in list(vars(m).items()):
            if value is original:
                setattr(m, name, wrapper)


class SpanTracer:
    """In-memory spans: per name, calls, inclusive seconds and self seconds."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_ARGS}
        self._child_time = [0.0]  # one accumulator per open span, plus the root

    def install(self) -> None:
        import affcells.cli  # noqa: F401 - load every module that holds a binding
        import affcells.verify

        for name, module, attr in SPAN_TARGETS:
            patch(module, attr, lambda fn, name=name: self._wrap(name, fn))
        suites = affcells.verify.SUITES
        for suite in SUITES:
            suites[suite] = self._wrap(f"verify.{suite}", suites[suite])

    def _wrap(self, name: str, fn):
        self.calls[name] = 0
        self.total[name] = 0.0
        self.self_time[name] = 0.0
        stack = self._child_time
        distinct = self.distinct.get(name)

        @wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                if distinct is not None:
                    distinct.add(args[0])

        return span


class CallCounter:
    """Call counts only, for functions too hot to span."""

    def __init__(self):
        self.calls: dict[str, int] = {}

    def install(self) -> None:
        import affcells.cli  # noqa: F401 - load every module that holds a binding

        for name, module, attr in COUNT_TARGETS:
            patch(module, attr, lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        self.calls[name] = 0
        calls = self.calls

        @wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted
