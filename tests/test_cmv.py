import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import dense
from rieszwalk.ansatz import alpha
from rieszwalk.cmv import (
    BandedUnitary,
    CoefficientOutOfDisk,
    DimensionMismatch,
    DimensionTooSmall,
    VerblunskyCoefficient,
    apply_from_source,
    build_cmv,
    spectral_moments,
    unitarity_defect,
)
from rieszwalk.riesz import moment


def free_matrix(dim: int) -> BandedUnitary:
    return build_cmv([0.0] * dim, dim)


def riesz_matrix(dim: int) -> BandedUnitary:
    return build_cmv([alpha(j) for j in range(dim)], dim)


def random_matrix(dim: int, seed: int) -> BandedUnitary:
    rng = random.Random(seed)
    alphas = [
        complex(rng.uniform(-0.65, 0.65), rng.uniform(-0.65, 0.65))
        for _ in range(dim)
    ]
    return build_cmv(alphas, dim)


# -- coefficients -------------------------------------------------------------


def test_coefficient_from_exact_rational():
    c = VerblunskyCoefficient(F(1, 2))
    assert c.value == 0.5
    assert c.rho == math.sqrt(0.75)


def test_coefficient_identity_holds():
    rng = random.Random(3)
    for _ in range(100):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        c = VerblunskyCoefficient(z)
        assert abs(abs(c.value) ** 2 + c.rho**2 - 1) <= 1e-14


@pytest.mark.parametrize(
    "bad",
    [1, -1, 1.5, F(7, 7), 0.6 + 0.9j, math.nan, complex(math.nan, 0), math.inf],
)
def test_coefficient_rejects_boundary(bad):
    with pytest.raises(CoefficientOutOfDisk):
        VerblunskyCoefficient(bad)


# -- construction -------------------------------------------------------------


def test_free_case_is_shift_pattern():
    m = dense(free_matrix(8))
    assert m[0, 2] == 1
    assert m[1, 0] == 1
    assert m[2, 4] == 1
    assert m[3, 1] == 1
    for r in range(4):
        assert sum(abs(v) for v in m[r]) == 1


def test_riesz_entries():
    m = dense(riesz_matrix(8))
    assert m[2, 4] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert m[0, 2] == 1
    assert m[2, 3] == pytest.approx(0.5, abs=1e-15)
    assert m[3, 3] == 0


def test_build_validations():
    with pytest.raises(ValueError):
        build_cmv([0.0] * 8, 1)
    with pytest.raises(ValueError):
        build_cmv([0.0] * 3, 8)
    with pytest.raises(CoefficientOutOfDisk):
        build_cmv([0.0, 1.5, 0.0, 0.0], 4)
    with pytest.raises(CoefficientOutOfDisk):
        build_cmv([0.0, math.nan, 0.0, 0.0], 4)


def test_entries_iterator_row_major_and_banded():
    m = riesz_matrix(12)
    entries = list(m.nonzero_entries())
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))
    assert all(abs(r - c) <= 2 for r, c, _ in entries)
    full = dense(m)
    for r, c, v in entries:
        assert full[r, c] == v


def test_from_entries_drops_entries_outside_the_matrix():
    m = BandedUnitary.from_entries(4, [(0, 2, 1.0), (3, 5, 2.0), (-1, 0, 3.0), (4, 3, 4.0)])
    assert list(m.nonzero_entries()) == [(0, 2, 1 + 0j)]


def test_dense_agrees_with_entry():
    # bands[o + 2, r] is the entry at (r, r + o); every other entry is zero.
    m = random_matrix(16, seed=11)
    full = dense(m)
    for r in range(16):
        for c in range(16):
            expected = m.bands[c - r + 2, r] if abs(c - r) <= 2 else 0
            assert full[r, c] == expected


# -- application --------------------------------------------------------------


def test_apply_free_case_moves_origin_up():
    m = free_matrix(8)
    state = np.zeros(8, dtype=complex)
    state[0] = 1.0
    out = apply_from_source(state, m)
    expected = np.zeros(8, dtype=complex)
    expected[2] = 1.0
    assert np.array_equal(out, expected)


def test_apply_matches_dense():
    m = random_matrix(20, seed=5)
    rng = np.random.default_rng(2)
    state = rng.normal(size=20) + 1j * rng.normal(size=20)
    out = apply_from_source(state, m)
    assert np.max(np.abs(out - state @ dense(m))) <= 1e-14


def test_apply_preserves_interior_norm():
    m = random_matrix(64, seed=9)
    rng = np.random.default_rng(4)
    state = np.zeros(64, dtype=complex)
    state[10:40] = rng.normal(size=30) + 1j * rng.normal(size=30)
    state /= np.linalg.norm(state)
    out = apply_from_source(state, m)
    assert abs(np.linalg.norm(out) - 1) <= 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_from_source(np.zeros(7), free_matrix(8))


def test_finite_propagation_speed():
    m = riesz_matrix(64)
    v = np.zeros(64, dtype=complex)
    v[0] = 1.0
    for n in range(1, 20):
        v = apply_from_source(v, m)
        assert np.all(v[2 * n + 1 :] == 0)


# -- unitarity ----------------------------------------------------------------


def test_unitarity_defect_free_case():
    assert unitarity_defect(free_matrix(16)) <= 1e-15


def test_unitarity_defect_riesz_large():
    assert unitarity_defect(riesz_matrix(1000)) <= 1e-12


def test_unitarity_defect_random():
    assert unitarity_defect(random_matrix(50, seed=21)) <= 1e-13


def test_unitarity_defect_matches_dense_gram():
    m = random_matrix(30, seed=33)
    full = dense(m)
    gram = full.conj().T @ full
    interior = gram[:28, :28] - np.eye(28)
    assert unitarity_defect(m) == pytest.approx(np.max(np.abs(interior)), abs=1e-15)


# -- spectral moments -----------------------------------------------------------


def test_moment_zero_is_one():
    assert spectral_moments(random_matrix(16, seed=1), 0)[0] == 1


def test_riesz_spectral_moments():
    m = riesz_matrix(16)
    assert abs(spectral_moments(m, 4)[4] - 0.5) <= 1e-10
    assert abs(spectral_moments(m, 2)[2]) <= 1e-10


def test_spectral_moments_match_exact_through_100():
    moments = spectral_moments(riesz_matrix(208), 100)
    for n in range(101):
        assert abs(moments[n] - float(moment(n))) <= 1e-10


def test_moment_needs_dimension():
    with pytest.raises(DimensionTooSmall):
        spectral_moments(free_matrix(8), 3)
