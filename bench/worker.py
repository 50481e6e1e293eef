"""One benchmark child: runs one unit of one workload from a cold start.

    python3 -I bench/worker.py '{"workload": "locate", "seed": 1, "chunk": 0, "mode": "plain"}'

Modes: `plain` (no tracing), `span` (SpanTracer), `count` (CallCounter) and
`probe` (the ms-per-call table, no workload).  The last line of standard
output is one JSON object.  Its times are normalised to the reference speed
(see SpeedGauge); `raw_wall_s` is the unscaled wall time.
`monotonic_start` is the time.monotonic() value at the first timed call, so
the parent can compute set-up time from its own clock reading taken before
it started this process, and scale it by `setup_scale`.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_build" / "affcells-bench"

# The command each suite workload times, as `affcells verify` arguments.
SUITE_RUNS = {
    "sweep": [["--suite", "all", "--nmax", "3"]],
    "certify": [["--suite", "varpi", "--nmax", "7"]],
    "combinatorics": [
        ["--suite", "lengths", "--nmax", "6"],
        ["--suite", "bruhat", "--nmax", "4"],
        ["--suite", "kappa", "--nmax", "7"],
    ],
}
LOCATE_PER_SIZE = 60
PROBE_PER_SIZE = 3
GAUGE_PERIOD_S = 0.25
# What inputs.reference_work took on the machine the baseline was recorded
# on.  Times are scaled by REFERENCE_S / (the reference time measured around
# them), so they read as seconds on a machine running at that speed.
REFERENCE_S = 0.008


def _import_affcells():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import affcells

    src = (ROOT / "src").resolve()
    if src not in Path(affcells.__file__).resolve().parents:
        raise SystemExit(f"affcells was imported from {affcells.__file__}, not from {src}")


class SpeedGauge:
    """Times a fixed piece of plain-Python work (inputs.reference_work)
    between operations, at most once per `period` seconds, because this
    machine's speed drifts by up to 1.6x over seconds.  A stretch of program
    time between two samples is scaled by REFERENCE_S over the mean of those
    two samples.  The samples' own time is left out of every reported time.
    """

    def __init__(self, period: float):
        self.period = period
        self.starts: list[float] = []
        self.ends: list[float] = []

    def tick(self, force: bool = False) -> None:
        import inputs

        start = time.perf_counter()
        if not force and self.ends and start < self.ends[-1] + self.period:
            return
        enabled = gc.isenabled()
        gc.disable()  # no collection of the program's heap inside the sample
        try:
            inputs.reference_work()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def _scale_after(self, k: int) -> float:
        """Scale for the stretch between samples k and k + 1."""
        before = self.ends[k] - self.starts[k]
        after = self.ends[k + 1] - self.starts[k + 1]
        return 2 * REFERENCE_S / (before + after)

    def scale(self, t: float) -> float:
        """Scale for program time at perf_counter() value t, which must lie
        between the first and the last sample."""
        return self._scale_after(bisect.bisect_right(self.ends, t) - 1)

    def normalised_total(self) -> tuple[float, float]:
        """(raw, scaled) program time from the first sample to the last."""
        raw = scaled = 0.0
        for k in range(len(self.starts) - 1):
            stretch = self.starts[k + 1] - self.ends[k]
            raw += stretch
            scaled += stretch * self._scale_after(k)
        return raw, scaled

    def first_scale(self) -> float:
        """Scale for what ran just before the first sample (the set-up)."""
        return REFERENCE_S / (self.ends[0] - self.starts[0])


class CheckClock:
    """Op latency for the suites: the time between consecutive check
    results, each check being one operation."""

    def __init__(self, gauge: SpeedGauge):
        self.gauge = gauge
        self.ops: list[tuple[float, float]] = []  # (start, seconds)
        self._last = 0.0

    def install(self):
        from affcells import verify

        record = verify.CheckResult.record
        clock = self

        def timed_record(check, ok, witness=""):
            now = time.perf_counter()
            clock.ops.append((clock._last, now - clock._last))
            record(check, ok, witness)
            clock.gauge.tick()
            clock._last = time.perf_counter()

        verify.CheckResult.record = timed_record

    def start(self):
        self._last = time.perf_counter()


def _suite_unit(workload: str, seed: int, mode: str, gauge: SpeedGauge):
    """Prepare the suite runs; return the timed callable and its finisher."""
    from affcells import cli

    clock = CheckClock(gauge)
    clock.install()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    paths = [OUT_DIR / f"{workload}-{mode}-{os.getpid()}-{k}.json"
             for k in range(len(SUITE_RUNS[workload]))]
    argvs = [["verify", *args, "--seed", str(seed), "--format", "json", "--out", str(path)]
             for args, path in zip(SUITE_RUNS[workload], paths)]
    codes = []

    def timed():
        clock.start()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                codes.append(cli.run(argv))

    def finish() -> dict:
        digest = hashlib.sha256()
        checks, errors = {}, []
        for argv, code, path in zip(argvs, codes, paths):
            text = path.read_text(encoding="utf-8")
            path.unlink()
            digest.update(text.encode())
            report = json.loads(text)
            if code != 0 or not report["ok"]:
                errors.append(f"{' '.join(argv[:5])}: exit {code}, ok={report['ok']}")
            for suite in report["suites"]:
                for check in suite["checks"]:
                    checks[f"{suite['suite']}.{check['name']}"] = [check["passed"], check["failed"]]
        return {
            "ops": clock.ops,
            "checks": checks,
            "attempted": sum(p + f for p, f in checks.values()),
            "failed": sum(f for _, f in checks.values()),
            "errors": errors,
            "digest": digest.hexdigest(),
        }

    return timed, finish


def to_matrix(rows):
    from affcells.laurent import LaurentMatrix, LaurentPoly

    return LaurentMatrix([[LaurentPoly(p) for p in row] for row in rows])


def run_locate(cases, gauge: SpeedGauge) -> dict:
    """Closed loop with one client: the next matrix goes in only when the
    previous cell has come back.  `cases` are (LaurentMatrix, window) pairs."""
    from affcells.cells import iwahori_cell

    ops, windows = [], []
    for matrix, _ in cases:
        start = time.perf_counter()
        try:
            windows.append(iwahori_cell(matrix).window)
        except Exception as exc:  # noqa: BLE001 - a raised error is a failed op
            windows.append(f"{type(exc).__name__}: {exc}")
        ops.append((start, time.perf_counter() - start))
        gauge.tick()
    wrong = [(i, got) for i, (got, (_, want)) in enumerate(zip(windows, cases)) if got != want]
    return {
        "ops": ops,
        "attempted": len(cases),
        "failed": len(wrong),
        "errors": [f"case {i} (n={len(cases[i][1])}): got {got}, want {cases[i][1]}"
                   for i, got in wrong[:5]],
        "digest": hashlib.sha256(repr(windows).encode()).hexdigest(),
    }


def _locate_unit(seed: int, chunk: int, gauge: SpeedGauge):
    import inputs

    raw = inputs.locate_cases(seed, chunk, LOCATE_PER_SIZE)
    cases = [(to_matrix(m), w) for m, w in raw]
    result = {}

    def timed():
        result.update(run_locate(cases, gauge))

    def finish() -> dict:
        result["properties"] = inputs.input_properties(raw)
        return result

    return timed, finish


def run_probe(seed: int) -> dict:
    """ms per call of det, invert and iwahori_cell at n = 4, 6, 8, each the
    median over PROBE_PER_SIZE fixed matrices; checks det = 1 and M M^-1 = 1."""
    import inputs
    from affcells.cells import iwahori_cell
    from affcells.laurent import LaurentMatrix, LaurentPoly, det, invert

    gauge = SpeedGauge(period=0.0)
    calls, errors, attempted = [], [], 0
    for n, mats in inputs.probe_matrices(seed, PROBE_PER_SIZE).items():
        for rows in mats:
            matrix = to_matrix(rows)
            for name, fn in (("laurent.det", det), ("laurent.invert", invert),
                             ("cells.iwahori_cell", iwahori_cell)):
                gauge.tick()
                start = time.perf_counter()
                out = fn(matrix)
                calls.append((f"{name}.ms_per_call.n{n}", start, time.perf_counter() - start))
                if name == "laurent.det" and out != LaurentPoly.one():
                    errors.append(f"probe n={n}: det = {out!r}")
                if name == "laurent.invert" and matrix * out != LaurentMatrix.identity(n):
                    errors.append(f"probe n={n}: M * invert(M) != 1")
            attempted += 2
    gauge.tick(force=True)
    ms: dict = {}
    for key, start, seconds in calls:
        ms.setdefault(key, []).append(seconds * gauge.scale(start) * 1e3)
    return {"ms_per_call": {k: statistics.median(v) for k, v in ms.items()},
            "attempted": attempted, "failed": len(errors), "errors": errors}


def main(spec: dict) -> dict:
    _import_affcells()
    workload, seed, chunk, mode = spec["workload"], spec["seed"], spec["chunk"], spec["mode"]
    if mode == "probe":
        return run_probe(seed)
    # Traced children sample only before and after the timed part, so the
    # samples stay out of the spans.
    gauge = SpeedGauge(period=GAUGE_PERIOD_S if mode == "plain" else float("inf"))
    if workload == "locate":
        timed, finish = _locate_unit(seed, chunk, gauge)
    else:
        timed, finish = _suite_unit(workload, seed, mode, gauge)

    import spans
    from affcells import affine

    tracer = counter = None
    if mode == "span":
        tracer = spans.SpanTracer()
        tracer.install()
    elif mode == "count":
        counter = spans.CallCounter()
        counter.install()

    monotonic_start = time.monotonic()
    gauge.tick(force=True)
    timed()
    gauge.tick(force=True)
    out = finish()
    out["raw_wall_s"], out["wall_s"] = gauge.normalised_total()
    out["latencies_ms"] = [seconds * gauge.scale(start) * 1e3 for start, seconds in out.pop("ops")]
    out["monotonic_start"] = monotonic_start
    out["setup_scale"] = gauge.first_scale()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["spans"] = {name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
                               "self_s": tracer.self_time[name]} for name in tracer.calls}
        out["distinct"] = {name: len(args) for name, args in tracer.distinct.items()}
        out["bruhat_cache_entries"] = len(affine._BRUHAT_CACHE)
    if counter is not None:
        out["counts"] = dict(counter.calls)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
