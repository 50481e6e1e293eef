"""The affcells benchmark: one workload, several cold-start child processes.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each child (bench/worker.py) imports affcells from this checkout's `src/`,
builds its inputs from the seed, and times one unit of the workload.  The
children run one at a time until `--seconds` is used up, so a run reports
medians over several cold starts.  Every child's output is checked: suite
reports must pass with the check counts recorded in bench/expected.json, a
located cell must equal the window its matrix was built from, and every
child of a run must give the same report.

The last line of standard output is the result object; lines before it hold
details (sample counts, input properties, the full span table).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_TARGETS, SPAN_TARGETS, SUITES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
EXPECTED = BENCH / "expected.json"
WORKLOADS = ("sweep", "certify", "locate", "combinatorics")
MIN_CHILDREN = 3  # plain children in an untraced run, for a median
CHILD_TIMEOUT_S = 120


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, chunk: int = 0) -> dict:
    """Run one child to completion and return its result, with setup_s.
    `chunk` picks the block of locate inputs; the suites ignore it."""
    spec = json.dumps({"workload": workload, "seed": seed, "chunk": chunk, "mode": mode})
    before = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(WORKER), spec],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child timed out after {CHILD_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["mode"] = mode
    result["inputs_id"] = chunk if workload == "locate" else 0
    if "monotonic_start" in result:
        result["setup_s"] = (result["monotonic_start"] - before) * result["setup_scale"]
    return result


def check(workload: str, expected: dict, child: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one child's output.  For a suite
    child the operations are the recorded checks; a check missing from the
    report, or run a different number of times, counts as failed."""
    errors = list(child["errors"])
    if "checks" not in child:
        return child["attempted"], child["failed"], errors
    want = expected[workload]
    got = child["checks"]
    failed = 0
    for name in sorted(set(want) | set(got)):
        passed, bad = got.get(name, (0, 0))
        wrong = bad + abs(passed - want.get(name, 0))
        if wrong:
            errors.append(f"{name}: passed={passed} failed={bad}, "
                          f"recorded passed={want.get(name)}")
        failed += wrong
    if errors and not failed:
        failed = 1
    return max(child["attempted"], sum(want.values())), failed, errors


def run_children(workload: str, seed: int, seconds: float, first: list[str],
                 repeat: list[str], minimum: int) -> list[dict]:
    """Run the `first` modes, then rounds of `repeat` while the next round
    is expected to end within `seconds`; at least `minimum` rounds in all."""
    start = time.monotonic()
    children, last = [], {}
    plan, rounds = first, 0
    while True:
        for mode in plan:
            began = time.monotonic()
            chunk = sum(c["mode"] == mode for c in children)
            children.append(spawn(workload, seed, mode, chunk))
            last[mode] = time.monotonic() - began
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= minimum and elapsed + sum(last[m] for m in repeat) > seconds:
            return children
        plan = repeat


def end_to_end(children: list[dict]) -> dict:
    plain = [c for c in children if c["mode"] == "plain"]
    latencies = [x for c in plain for x in c["latencies_ms"]]
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": {"value": statistics.median(c["setup_s"] for c in plain), "unit": "s"},
        "wall_s": {"value": statistics.median(c["wall_s"] for c in plain), "unit": "s"},
        "op_p50_ms": {"value": percentiles[49], "unit": "ms"},
        "op_p95_ms": {"value": percentiles[94], "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in plain),
                        "unit": "MiB"},
    }


def per_layer(children: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced children, and the full span table."""
    plain = [c for c in children if c["mode"] == "plain"]
    traced = [c for c in children if c["mode"] == "span"]
    first = traced[0]
    counts = next(c["counts"] for c in children if c["mode"] == "count")
    probe = next(c["ms_per_call"] for c in children if c["mode"] == "probe")
    traced_wall = statistics.median(c["wall_s"] for c in traced)

    def share(name, key):
        value = statistics.median(c["spans"][name][key] / c["raw_wall_s"] for c in traced)
        return {"value": 100 * value, "unit": "%"}

    def calls(name):
        return first["spans"][name]["calls"]

    metrics = {}
    for name, _, _ in SPAN_TARGETS:
        metrics[f"{name}.calls"] = {"value": calls(name), "unit": "count"}
        metrics[f"{name}.self_share"] = share(name, "self_s")
        metrics[f"{name}.total_share"] = share(name, "total_s")
    for name, _, _ in COUNT_TARGETS:
        metrics[f"{name}.calls"] = {"value": counts[name], "unit": "count"}
    for name, value in probe.items():
        metrics[name] = {"value": value, "unit": "ms"}
    for suite in SUITES:
        metrics[f"verify.{suite}.total_share"] = share(f"verify.{suite}", "total_s")
    metrics["verify.checks"] = {"value": first["attempted"] if "checks" in first else 0,
                                "unit": "count"}
    phi = calls("cells.phi_map")
    metrics["lattices.validate_per_flag"] = {
        "value": calls("lattices.validate") / phi if phi else 0.0, "unit": "ratio"}
    kappa = first["distinct"]["constructions.kappa_bundle"]
    metrics["constructions.kappa_bundle.repeat_ratio"] = {
        "value": calls("constructions.kappa_bundle") / kappa if kappa else 0.0, "unit": "ratio"}
    metrics["affine.bruhat_cache.entries"] = {"value": first["bruhat_cache_entries"],
                                              "unit": "count"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / statistics.median(c["wall_s"] for c in plain), "unit": "ratio"}
    table = {name: {k: statistics.median(c["spans"][name][k] for c in traced)
                    if k != "calls" else first["spans"][name][k] for k in first["spans"][name]}
             for name in first["spans"]}
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "affcells" / "__init__.py").is_file():
        print(f"error: no affcells sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))

    if args.trace:
        plan = (["plain", "span", "count", "probe"], ["plain", "span"], 1)
    else:
        plan = (["plain"], ["plain"], MIN_CHILDREN)
    errors = []
    try:
        children = run_children(args.workload, args.seed, args.seconds, *plan)
    except ChildFailed as exc:
        children = []
        errors.append(str(exc))

    attempted = failed = 0
    for child in children:
        a, f, reasons = check(args.workload, expected, child)
        attempted += a
        failed += f
        errors += reasons
    digests: dict = {}
    for child in children:
        if "digest" in child:
            digests.setdefault(child["inputs_id"], set()).add(child["digest"])
    if any(len(d) > 1 for d in digests.values()):
        errors.append("children given the same inputs gave different results")
        failed += 1
    correct = bool(children) and not errors and attempted > 0 and failed == 0

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "children": {m: sum(c["mode"] == m for c in children)
                     for m in ("plain", "span", "count", "probe")},
        "op_samples": sum(len(c["latencies_ms"]) for c in children if c["mode"] == "plain"),
        "raw_wall_s": [round(c["raw_wall_s"], 4) for c in children if c["mode"] == "plain"],
        "errors": errors[:20],
    }
    properties = next((c["properties"] for c in children if "properties" in c), None)
    if properties:
        detail["inputs"] = properties
    metrics = {}
    if children:
        if args.trace:
            metrics, detail["spans"] = per_layer(children)
        else:
            metrics = end_to_end(children)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
