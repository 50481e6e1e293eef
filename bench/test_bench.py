"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest -q bench/test_bench.py

They start real benchmark children, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SEED = 3

# The per-layer calls each workload exists to load, and some it must not touch.
LOADS = {
    "sweep": [
        "laurent.invert", "laurent.det", "laurent.matmul", "laurent.borel_membership",
        "lattices.from_columns", "lattices.contains", "lattices.validate",
        "cells.iwahori_cell", "cells.parabolic_cell", "cells.phi_map", "cells.psi_map",
        "cells.mv_flag",
        "sampling.random_iwahori", "sampling.random_finite_borel", "sampling.random_sl",
        "sampling.random_nilradical", "sampling.random_parabolic",
        "constructions.kappa_bundle", "constructions.varpi_witness",
        "constructions.decompose_varpi", "constructions.check_kappa",
        "constructions.divisor_data", "constructions.divisor_witnesses",
        "partitions.jordan_type", "tableau.build", "cli.run", "jsonio.dumps",
        "laurent.poly_mul", "laurent.poly_divmod",
        "affine.bruhat_leq", "affine.min_coset_rep", "affine.length",
    ],
    "certify": ["laurent.invert", "laurent.det", "laurent.matmul",
                "laurent.borel_membership", "constructions.varpi_witness",
                "laurent.poly_mul"],
    "locate": ["cells.iwahori_cell", "laurent.det", "laurent.poly_mul"],
    "combinatorics": ["affine.bruhat_leq", "affine.min_coset_rep", "affine.length",
                      "partitions.jordan_type", "tableau.build",
                      "constructions.kappa_bundle", "constructions.check_kappa"],
}
UNTOUCHED = {
    "certify": ["lattices.from_columns", "cells.iwahori_cell", "cells.phi_map",
                "sampling.random_sl"],
    "locate": ["lattices.from_columns", "laurent.invert", "sampling.random_iwahori",
               "sampling.random_sl", "cli.run"],
    "combinatorics": ["lattices.from_columns", "cells.iwahori_cell", "laurent.invert"],
}


@pytest.fixture(scope="module")
def children():
    """One child of every mode for every workload, all on one seed."""
    return {w: [run.spawn(w, SEED, mode) for mode in ("plain", "span", "count", "probe")]
            for w in run.WORKLOADS}


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_traced_report_equals_untraced(children):
    for workload, kids in children.items():
        plain, span, count, _ = kids
        assert plain["digest"] == span["digest"] == count["digest"], workload
        assert run.check(workload, json.loads(run.EXPECTED.read_text()), span)[1:] == (0, [])


def test_each_layer_is_loaded_by_its_workload(children):
    for workload, names in LOADS.items():
        _, span, count, _ = children[workload]
        calls = {**{k: v["calls"] for k, v in span["spans"].items()}, **count["counts"]}
        assert [n for n in names if calls[n] == 0] == [], workload
        assert [n for n in UNTOUCHED.get(workload, []) if calls[n]] == [], workload


def test_metrics_match_benchmark_json(children, benchmark_json):
    for workload, kids in children.items():
        layer, _ = run.per_layer(kids)
        assert sorted(layer) == sorted(m["name"] for m in benchmark_json["per_layer"])
        for metric in benchmark_json["per_layer"]:
            assert layer[metric["name"]]["unit"] == metric["unit"]
        e2e = run.end_to_end(kids)
        assert sorted(e2e) == sorted(m["name"] for m in benchmark_json["end_to_end"])
        assert all(v["value"] > 0 for v in e2e.values()), (workload, e2e)
    sweep, _ = run.per_layer(children["sweep"])
    assert sweep["lattices.validate_per_flag"]["value"] > 1
    assert sweep["constructions.kappa_bundle.repeat_ratio"]["value"] > 1
    assert sweep["affine.bruhat_cache.entries"]["value"] > 0


def test_counts_repeat_across_traced_runs(children):
    for workload in ("sweep", "combinatorics"):
        _, span, count, _ = children[workload]
        span2 = run.spawn(workload, SEED, "span")
        count2 = run.spawn(workload, SEED, "count")
        assert {k: v["calls"] for k, v in span["spans"].items()} == \
               {k: v["calls"] for k, v in span2["spans"].items()}
        assert span["distinct"] == span2["distinct"]
        assert span["bruhat_cache_entries"] == span2["bruhat_cache_entries"]
        assert count["counts"] == count2["counts"]


def test_gate_fails_on_a_planted_wrong_window():
    raw = inputs.locate_cases(SEED, 0, 2)
    cases = [(worker.to_matrix(m), w) for m, w in raw]
    assert worker.run_locate(cases, worker.SpeedGauge(1.0))["failed"] == 0
    matrix, window = cases[1]
    planted = (window[1], window[0]) + window[2:]
    cases[1] = (matrix, planted)
    result = worker.run_locate(cases, worker.SpeedGauge(1.0))
    assert result["failed"] == 1 and "case 1" in result["errors"][0]
    assert run.check("locate", {}, result)[:2] == (len(cases), 1)


def test_gate_fails_on_a_shrunk_sweep(children):
    expected = json.loads(run.EXPECTED.read_text())
    plain = dict(children["combinatorics"][0])
    assert run.check("combinatorics", expected, plain)[1:] == (0, [])
    checks = dict(plain["checks"])
    name = "kappa.kappa_bundle_identities"
    checks[name] = [checks[name][0] - 1, 0]
    plain["checks"] = checks
    _, failed, errors = run.check("combinatorics", expected, plain)
    assert failed == 1 and name in errors[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "locate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
