import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (
    apply_full_length,
    build_cmv_by_entry,
    cmv_from_theta,
    dense,
    disk_point_by_fraction,
    from_entries,
    spectral_moments,
)
from rieszwalk.ansatz import alpha
from rieszwalk.cmv import (
    BandedUnitary,
    CoefficientOutOfDisk,
    DimensionMismatch,
    DimensionTooSmall,
    apply_from_source,
    build_cmv,
    disk_point,
    unitarity_defect,
)
from rieszwalk.riesz import moment
from rieszwalk.walk import HADAMARD_COIN, coined_walk_matrix


def free_matrix(dim: int) -> BandedUnitary:
    return build_cmv([0.0] * dim, dim)


def riesz_matrix(dim: int) -> BandedUnitary:
    return build_cmv([alpha(j) for j in range(dim)], dim)


def random_alphas(count: int, seed: int) -> list[complex]:
    rng = random.Random(seed)
    return [
        complex(rng.uniform(-0.65, 0.65), rng.uniform(-0.65, 0.65))
        for _ in range(count)
    ]


def random_matrix(dim: int, seed: int) -> BandedUnitary:
    return build_cmv(random_alphas(dim, seed), dim)


# -- coefficients -------------------------------------------------------------


def test_coefficient_from_exact_rational():
    value, rho = disk_point(F(1, 2))
    assert value == 0.5
    assert rho == math.sqrt(0.75)


def test_coefficient_identity_holds():
    rng = random.Random(3)
    for _ in range(100):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        value, rho = disk_point(z)
        assert abs(abs(value) ** 2 + rho**2 - 1) <= 1e-14


@pytest.mark.parametrize(
    "bad",
    [1, -1, 1.5, F(7, 7), 0.6 + 0.9j, math.nan, complex(math.nan, 0), math.inf],
)
def test_coefficient_rejects_boundary(bad):
    with pytest.raises(CoefficientOutOfDisk):
        disk_point(bad)


def bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


def test_disk_point_matches_fraction_oracle_bitwise():
    rng = random.Random(17)
    values = [0, F(0), F(1, 2), F(-1, 3), F(10**40 + 1, 10**41), F(-(10**40 + 1), 10**41)]
    for e in (10, 30, 60, 300):
        # Within 10**-e of +-1 the complement is tiny and the rounding tight.
        values += [F(10**e - 1, 10**e), F(1 - 10**e, 10**e), F(10**e, 10**e + 1)]
    for _ in range(200):
        d = rng.randrange(1, 10**rng.randrange(1, 80))
        values.append(F(rng.randrange(1 - d, d), d))
    for value in values:
        assert bits(disk_point(value)) == bits(disk_point_by_fraction(value)), value
    for bad in (F(10**40, 10**40 - 1), F(-(10**40 + 1), 10**40), 2, -3):
        for fn in (disk_point, disk_point_by_fraction):
            with pytest.raises(CoefficientOutOfDisk):
                fn(bad)


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


@pytest.mark.parametrize("dim", [2, 3, 8, 15, 16])
def test_complex_entries_match_theta_factorization(dim):
    # Complex coefficients tell alpha from its conjugate and catch a shifted
    # index, which the real Riesz and Hadamard coefficients cannot.
    alphas = random_alphas(dim + 2, seed=dim)
    got = dense(build_cmv(alphas, dim))
    want = cmv_from_theta(alphas, dim)
    assert np.array_equal(got != 0, want != 0)
    assert np.max(np.abs(got - want)) <= 1e-15


def alphas_of_kind(kind: str, count: int) -> list:
    rng = random.Random(count)
    if kind == "riesz":
        return [alpha(j) for j in range(count)]
    if kind == "fraction":
        return [F(rng.randrange(-(10**40), 10**40), 10**40 + 7) for _ in range(count)]
    if kind == "float":
        # Signed zeros among the values exercise the sign of every zero product.
        return [rng.choice([0.0, -0.0, rng.uniform(-0.9, 0.9)]) for _ in range(count)]
    return random_alphas(count, seed=count)


@pytest.mark.parametrize("kind", ["riesz", "fraction", "float", "complex"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 17, 201])
def test_build_cmv_matches_entry_oracle_bitwise(kind, dim):
    alphas = alphas_of_kind(kind, dim + 1)
    assert build_cmv(alphas, dim).bands.tobytes() == build_cmv_by_entry(alphas, dim).bands.tobytes()


def test_build_validations():
    with pytest.raises(ValueError):
        build_cmv([0.0] * 8, 1)
    with pytest.raises(ValueError):
        build_cmv([0.0] * 3, 8)
    with pytest.raises(CoefficientOutOfDisk):
        build_cmv([0.0, 1.5, 0.0, 0.0], 4)
    with pytest.raises(CoefficientOutOfDisk):
        build_cmv([0.0, math.nan, 0.0, 0.0], 4)
    with pytest.raises(CoefficientOutOfDisk):
        build_cmv([F(0), F(-5, 4), F(0), F(0)], 4)


def test_entries_iterator_row_major_and_banded():
    m = riesz_matrix(12)
    entries = list(m.nonzero_entries())
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))
    assert all(abs(r - c) <= 2 for r, c, _ in entries)
    full = dense(m)
    for r, c, v in entries:
        assert full[r, c] == v


def test_from_entries_drops_entries_outside_the_matrix():
    m = from_entries(4, [(0, 2, 1.0), (3, 5, 2.0), (-1, 0, 3.0), (4, 3, 4.0)])
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
    out = apply_from_source(state, m, support=m.dimension)
    expected = np.zeros(8, dtype=complex)
    expected[2] = 1.0
    assert np.array_equal(out, expected)


def test_apply_matches_dense():
    m = random_matrix(20, seed=5)
    rng = np.random.default_rng(2)
    state = rng.normal(size=20) + 1j * rng.normal(size=20)
    out = apply_from_source(state, m, support=m.dimension)
    assert np.max(np.abs(out - state @ dense(m))) <= 1e-14


def test_apply_preserves_interior_norm():
    m = random_matrix(64, seed=9)
    rng = np.random.default_rng(4)
    state = np.zeros(64, dtype=complex)
    state[10:40] = rng.normal(size=30) + 1j * rng.normal(size=30)
    state /= np.linalg.norm(state)
    out = apply_from_source(state, m, support=m.dimension)
    assert abs(np.linalg.norm(out) - 1) <= 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_from_source(np.zeros(7), free_matrix(8), support=8)
    with pytest.raises(DimensionMismatch):
        apply_from_source(np.zeros(7), free_matrix(8), support=3)


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@pytest.mark.parametrize("kind", ["riesz", "float", "complex"])
def test_apply_matches_full_length_oracle_bitwise(kind):
    n = 40
    m = build_cmv(alphas_of_kind(kind, n), n)
    full = random_state(n, seed=n)
    assert bits(apply_from_source(full, m, support=n)) == bits(apply_full_length(full, m))
    for support in range(n + 3):
        state = full.copy()
        state[support:] = 0
        got = apply_from_source(state, m, support=support)
        assert bits(got) == bits(apply_full_length(state, m)), support


def test_spans_cover_the_non_zero_rows_of_each_band():
    # The Riesz operator's main diagonal is zero.  The free operator is a
    # shift: its rows 0, 2, 4 move right by two, row 1 left by one and rows
    # 3, 5, 7 left by two; its offsets 0 and +1 get no span.
    assert [o for o, _, _ in riesz_matrix(40).spans] == [-2, -1, 1, 2]
    assert free_matrix(8).spans == ((-2, 3, 8), (-1, 1, 2), (2, 0, 5))


def test_junk_outside_the_matrix_is_never_read():
    n = 12
    bands = np.zeros((5, n), dtype=complex)
    bands[:, 4:8] = random_state(20, seed=3).reshape(5, 4)
    bands[4, 5:] = 0  # offset +2 is empty inside the matrix
    # Slots whose column falls outside the matrix hold junk; the first two
    # would wrap around as negative indices if a span started there.
    bands[0, :2] = bands[1, 0] = bands[3, -1] = math.nan
    bands[4, -2:] = 1e300 + 1e300j
    m = BandedUnitary(bands)
    assert m.spans == ((-2, 4, 8), (-1, 4, 8), (0, 4, 8), (1, 4, 8), (2, 4, 5))
    full = random_state(n, seed=4)
    for support in range(n + 1):
        state = full.copy()
        state[support:] = 0
        got = apply_from_source(state, m, support=support)
        assert bits(got) == bits(apply_full_length(state, m)), support
    m = BandedUnitary(np.where(np.arange(n) < 2, bands, 0))
    assert m.spans == ()
    assert bits(apply_from_source(full, m, support=n)) == bits(np.zeros(n))


def outside_the_matrix(n: int) -> np.ndarray:
    """Mask of the band slots (o + 2, r) whose column r + o is not in 0..n - 1."""
    col = np.arange(n) + np.arange(-2, 3)[:, None]
    return (col < 0) | (col >= n)


@pytest.mark.parametrize("junk", [math.nan, 1e300 + 1e300j, complex(math.inf, math.nan)])
@pytest.mark.parametrize(
    "clean",
    [riesz_matrix(33), random_matrix(16, seed=7), coined_walk_matrix(HADAMARD_COIN, 12)],
    ids=["riesz", "random", "hadamard-coined"],
)
def test_junk_twin_matches_its_clean_twin(clean, junk):
    n = clean.dimension
    assert np.count_nonzero(outside_the_matrix(n)) == 6
    m = BandedUnitary(np.where(outside_the_matrix(n), junk, clean.bands))
    assert m.bands.tobytes() == clean.bands.tobytes()
    assert m.spans == clean.spans
    assert list(m.nonzero_entries()) == list(clean.nonzero_entries())
    full = random_state(n, seed=n)
    for support in (0, 1, n // 2, n):
        state = full.copy()
        state[support:] = 0
        got = apply_from_source(state, m, support=support)
        assert bits(got) == bits(apply_from_source(state, clean, support=support)), support
    assert unitarity_defect(m) == unitarity_defect(clean)


def test_constructor_copies_and_leaves_the_callers_array_writable():
    n = 9
    bands = np.where(outside_the_matrix(n), math.nan, random_state(5 * n, seed=9).reshape(5, n))
    before = bands.tobytes()
    m = BandedUnitary(bands)
    assert bands.tobytes() == before
    assert bands.flags.writeable
    assert not m.bands.flags.writeable
    assert not np.shares_memory(bands, m.bands)
    bands.flags.writeable = False
    assert BandedUnitary(bands).bands.tobytes() == m.bands.tobytes()


@pytest.mark.parametrize("n", range(7))
def test_every_small_dimension_constructs(n):
    m = BandedUnitary(np.ones((5, n), dtype=complex))
    assert m.dimension == n
    assert np.array_equal(m.bands, np.where(outside_the_matrix(n), 0, 1))
    assert list(m.nonzero_entries()) == [
        (r, c, 1 + 0j) for r in range(n) for c in range(n) if abs(r - c) <= 2
    ]


def test_constructor_rejects_a_wrong_shape():
    for shape in ((5,), (4, 8), (5, 8, 1)):
        with pytest.raises(ValueError):
            BandedUnitary(np.zeros(shape, dtype=complex))


def test_finite_propagation_speed():
    m = riesz_matrix(64)
    v = np.zeros(64, dtype=complex)
    v[0] = 1.0
    for n in range(1, 20):
        v = apply_from_source(v, m, support=m.dimension)
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


@pytest.mark.parametrize("kind", ["riesz", "complex"])
def test_spectral_moments_match_full_length_stepping_bitwise(kind):
    m = build_cmv(alphas_of_kind(kind, 209), 208)
    v = np.zeros(208, dtype=complex)
    v[0] = 1.0
    want = [v[0]]
    for _ in range(100):
        v = apply_full_length(v, m)
        want.append(v[0])
    assert spectral_moments(m, 100).tobytes() == np.array(want).tobytes()


def test_moment_needs_dimension():
    with pytest.raises(DimensionTooSmall):
        spectral_moments(free_matrix(8), 3)
