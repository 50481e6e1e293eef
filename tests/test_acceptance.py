"""Acceptance criteria, one test per criterion, at the stated scales.

Each test prints a single PASS line on success (pytest -s shows them); any
failure carries the offending witnesses in the assertion message.  Seeds are
fixed so runs are reproducible.
"""

import time

from affcells import verify
from affcells.constructions import dim_g_mod_p, kappa_bundle
from affcells.partitions import Composition, compositions_of
from affcells.tableau import build

SEED = 20260810


def _assert_clean(result, context):
    bad = [
        f"{c.name}: {c.witnesses[:3]}"
        for c in result.checks
        if c.failed
    ]
    assert not bad, f"{context}: {bad}"
    assert result.passed > 0


def test_criterion_1_worked_example_reproduction():
    start = time.monotonic()
    lam = Composition((1, 4, 4, 2, 6))
    tab = build(lam)
    assert tab.nu.parts == (5, 4, 3, 3, 1, 1)
    assert tab.s1 == frozenset({1, 3, 4, 5, 16, 17})
    assert tab.l == (1, 2, 3, 4, 12, 13)
    assert tab.m == (14, 15, 16, 17, 10, 11, 6, 7, 8, 9, 5)
    assert tab.f[(1, 4)] == 10
    assert tab.f[(4, 3)] == 15
    assert tab.f[(6, 1)] == 17
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\nPASS criterion 1: worked example reproduced exactly ({elapsed:.3f}s)")


def test_criterion_2_length_formula_vs_oracle():
    start = time.monotonic()
    result = verify.run_suite("lengths", nmax=6, seed=SEED)
    _assert_clean(result, "length formula")
    elapsed = time.monotonic() - start
    assert elapsed < 0.5, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 2: length formula = inversion oracle, "
          f"{result.passed} checks ({elapsed:.1f}s)")


def test_criterion_3_cell_certificate_identity():
    start = time.monotonic()
    result = verify.run_suite("varpi", nmax=10, seed=SEED)
    _assert_clean(result, "cell certificate")
    elapsed = time.monotonic() - start
    assert elapsed < 2.5, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: b(1 - t^-1 Z)c certificate exact for all "
          f"compositions n <= 10, {result.passed} checks ({elapsed:.1f}s)")


def test_criterion_4_kappa_structure():
    start = time.monotonic()
    result = verify.run_suite("kappa", nmax=8, seed=SEED)
    _assert_clean(result, "kappa structure")
    elapsed = time.monotonic() - start
    assert elapsed < 2.5, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 4: decomposition, stability, minimality, and "
          f"length formula for n <= 8, {result.passed} checks ({elapsed:.1f}s)")


def test_criterion_5_two_reflection_minimum():
    start = time.monotonic()
    result = verify.run_suite("bruhat", nmax=4, seed=SEED)
    _assert_clean(result, "two-reflection minimum")
    elapsed = time.monotonic() - start
    assert elapsed < 0.5, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 5: case split and chains confirmed by the "
          f"Bruhat oracle, {result.passed} checks ({elapsed:.1f}s)")


def test_criterion_6_cotangent_image_cells():
    start = time.monotonic()
    result = verify.run_suite("embeddings", nmax=5, seed=SEED)
    _assert_clean(result, "cotangent image")
    elapsed = time.monotonic() - start
    assert elapsed < 12, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 6: witness hits the top cell and 50 random "
          f"points stay below it for n <= 5, {result.passed} checks ({elapsed:.1f}s)")


def test_criterion_7_divisor_cells():
    start = time.monotonic()
    result = verify.run_suite("divisors", nmax=6, seed=SEED, samples=10)
    _assert_clean(result, "divisor cells")
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 7: conormal directions, lengths, witness "
          f"reductions, and random cells for n <= 6, {result.passed} checks "
          f"({elapsed:.1f}s)")


def test_criterion_8_embedding_coherence():
    start = time.monotonic()
    # conjugation invariance (n <= 5) and the two-step flag comparison run
    # inside the embeddings suite at nmax 5 (criterion 6); here the
    # translation identities are swept to the full n <= 8 range.
    result = verify.run_suite("embeddings", nmax=5, seed=SEED + 1, samples=5)
    _assert_clean(result, "embedding coherence")
    for n in range(1, 9):
        for lam in compositions_of(n):
            bundle = kappa_bundle(lam)  # verifies the coset representative
            assert bundle.tau_q.length() == 2 * dim_g_mod_p(lam), lam.parts
    elapsed = time.monotonic() - start
    assert elapsed < 3.5, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 8: conjugation invariance, two-step flag "
          f"agreement, and translation identities up to n <= 8 ({elapsed:.1f}s)")


def test_criterion_9_flag_invariants():
    start = time.monotonic()
    # flags are validated once, at construction inside phi_map, which both
    # the embeddings and divisors sweeps call; rerun both with fresh seeds and
    # demand that the flag checks actually exercised samples
    emb = verify.run_suite("embeddings", nmax=4, seed=SEED + 2, samples=10)
    _assert_clean(emb, "flag invariants (cotangent images)")
    div = verify.run_suite("divisors", nmax=5, seed=SEED + 2, samples=5)
    _assert_clean(div, "flag invariants (divisor points)")
    flag_checks = [c for c in emb.checks if c.name == "image_flags_satisfy_invariants"]
    assert flag_checks and flag_checks[0].passed > 0
    elapsed = time.monotonic() - start
    assert elapsed < 3.5, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 9: every image flag satisfies the chain, step, "
          f"and virtual-dimension conditions ({elapsed:.1f}s)")
