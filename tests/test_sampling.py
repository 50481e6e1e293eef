"""Golden digests and structural properties of the random samplers.

The digests pin every sampler's output, and the state of its generator
afterwards, for seeds 0-19 and n = 1..8; a change to how a sampler builds
its matrix must leave both unchanged, so every seeded sweep stays the same.
"""

import hashlib
import json
import random

import pytest

from affcells import sampling
from affcells.jsonio import matrix_to_obj
from affcells.laurent import LaurentMatrix, LaurentPoly, borel_membership, det
from affcells.partitions import compositions_of, constant_rows

SEEDS = range(20)
SIZES = range(1, 9)


def _lam(seed, n):
    comps = list(compositions_of(n))
    return comps[seed % len(comps)]


SAMPLERS = {
    "random_iwahori": lambda rng, n, lam: sampling.random_iwahori(rng, n),
    "random_finite_borel": lambda rng, n, lam: sampling.random_finite_borel(rng, n),
    "random_sl": lambda rng, n, lam: sampling.random_sl(rng, n),
    "random_nilradical": lambda rng, n, lam: sampling.random_nilradical(rng, lam),
    # The digest pins p alone; its inverse is checked below.
    "random_parabolic": lambda rng, n, lam: sampling.random_parabolic(rng, lam)[0],
    "random_window": lambda rng, n, lam: sampling.random_window(rng, n).window,
    "random_conjugate_frame": lambda rng, n, lam: sampling.random_conjugate_frame(rng, n),
}

# sha256 over every (seed, n) output and the next draw of its generator.
GOLDEN = {
    "random_iwahori": "11739a2c0edcdefeefff22420566a2151104a687dfd606bb4b03bd5db38790d1",
    "random_finite_borel": "f9609bedfaa0c9fe4df19cecaf1545d7635acf28562824e16c5a2c647fae8e21",
    "random_sl": "87d27e3af55520ce5e722943036a0a1981996d1d31931bac6cbcce0d4b20fe81",
    "random_nilradical": "029161be45cc631c8a9da61c7173ff3c010ccb2af25e7db4193c73025f6c181a",
    "random_parabolic": "da7acd5e8a09ec29394a670ab2c822d385d8016c3aed2cb468a01b147478e05e",
    "random_window": "80920048cacff6efcc481d699e162b36662f01ef175b6811cda16ea432f36c4c",
    "random_conjugate_frame": "8d984e0bf29d07e26add72e638af3302cb54105313d03187b43799da48e547ae",
}


def _text(out):
    """JSON form of one output: a matrix, a window, or a pair of matrices."""
    if isinstance(out, LaurentMatrix):
        return matrix_to_obj(out)
    if isinstance(out[0], int):
        return list(out)
    return [matrix_to_obj(m) for m in out]


def _digest(name):
    h = hashlib.sha256()
    for seed in SEEDS:
        for n in SIZES:
            rng = random.Random(seed)
            out = SAMPLERS[name](rng, n, _lam(seed, n))
            h.update(json.dumps([seed, n, _text(out), rng.getrandbits(32)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_golden_digest(name):
    assert _digest(name) == GOLDEN[name]


def _cases():
    for seed in SEEDS:
        for n in SIZES:
            yield random.Random(seed), n, _lam(seed, n)


@pytest.mark.parametrize(
    "name", ["random_iwahori", "random_finite_borel", "random_sl", "random_parabolic"]
)
def test_group_samplers_have_determinant_one(name):
    for rng, n, lam in _cases():
        assert det(SAMPLERS[name](rng, n, lam)) == LaurentPoly.one()


def test_iwahori_lies_in_borel_plus():
    for rng, n, _ in _cases():
        assert borel_membership(sampling.random_iwahori(rng, n))


def test_finite_borel_is_constant_upper_triangular():
    for rng, n, _ in _cases():
        b = sampling.random_finite_borel(rng, n)
        assert constant_rows(b) is not None
        assert all(b.rows[i][j].is_zero() for i in range(n) for j in range(i))


def test_parabolic_is_block_upper_triangular():
    # The inverse lies in the same parabolic.
    for rng, n, lam in _cases():
        for p in sampling.random_parabolic(rng, lam):
            assert constant_rows(p) is not None
            blocks = lam.blocks
            assert all(
                p.rows[i][j].is_zero()
                for i in range(n)
                for j in range(n)
                if blocks[i] > blocks[j]
            )


def test_conjugate_frame_is_a_random_sl_draw_and_its_inverse():
    # The same draws as random_sl, and the inverse built by row operations
    # alongside is exact on both sides.
    for seed in SEEDS:
        for n in SIZES:
            g, ginv = sampling.random_conjugate_frame(random.Random(seed), n)
            assert g == sampling.random_sl(random.Random(seed), n)
            assert g * ginv == LaurentMatrix.identity(n) == ginv * g


def test_parabolic_comes_with_its_inverse():
    # The inverse is built by row operations alongside p, from the same draws.
    for seed in SEEDS:
        for n in range(1, 7):
            lam = _lam(seed, n)
            p, pinv = sampling.random_parabolic(random.Random(seed), lam)
            assert p * pinv == LaurentMatrix.identity(n) == pinv * p
