"""Invariants of the numeric layer, checked over generated inputs."""

import cmath
import math
import re

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    apply_full_length,
    coined_walk_matrix_by_entry,
    first_return_full_length,
    flush_front,
    from_entries,
    residue_rows,
    spectral_moments,
)
from rieszwalk.cmv import BandedUnitary, build_cmv, unitarity_defect
from rieszwalk.walk import (
    CoinMatrix,
    WalkState,
    coined_walk_matrix,
    evolve,
    first_return_numeric,
    trajectory,
)

# Real and imaginary parts below 0.7 keep every coefficient inside the disk.
in_disk = st.builds(
    complex,
    st.floats(-0.7, 0.7, allow_nan=False),
    st.floats(-0.7, 0.7, allow_nan=False),
)
amplitude = st.builds(
    complex,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
)
property_settings = settings(deadline=None, max_examples=60)


@st.composite
def alpha_lists(draw, min_size: int, max_size: int) -> list[complex]:
    """Coefficients in the disk; some lists are zero off one residue class.

    The class is drawn mod 4 or mod 8, as the Riesz coefficients vanish off
    n = 3 (mod 4), so the operator's bands hold zeros in repeating patterns.
    """
    alphas = draw(st.lists(in_disk, min_size=min_size, max_size=max_size))
    period = draw(st.sampled_from([1, 4, 8]))
    residue = draw(st.integers(0, period - 1))
    return [a if j % period == residue else 0j for j, a in enumerate(alphas)]


# Initial states whose head has zeros among its entries.
heads = st.lists(st.one_of(st.just(0j), amplitude), min_size=1, max_size=10)


@property_settings
@given(st.lists(in_disk, min_size=2, max_size=40))
def test_from_entries_inverts_nonzero_entries(alphas):
    m = build_cmv(alphas, len(alphas))
    again = from_entries(m.dimension, m.nonzero_entries())
    assert again.dimension == m.dimension
    assert np.array_equal(again.bands, m.bands)


@property_settings
@given(st.lists(in_disk, min_size=5, max_size=60))
def test_build_cmv_is_unitary_in_the_interior(alphas):
    assert unitarity_defect(build_cmv(alphas, len(alphas))) <= 1e-12


@property_settings
@given(st.data())
def test_evolve_conserves_norm(data):
    steps = data.draw(st.integers(0, 20))
    head = data.draw(st.lists(amplitude, min_size=1, max_size=6))
    assume(np.linalg.norm(head) >= 0.1)
    dim = max(2 * steps + 8, len(head) + 2 * steps + 2)
    alphas = data.draw(st.lists(in_disk, min_size=dim, max_size=dim))
    v = np.zeros(dim, dtype=complex)
    v[: len(head)] = head
    v /= np.linalg.norm(v)
    out = evolve(build_cmv(alphas, dim), WalkState(v), steps)
    assert abs(out.norm() - 1) <= 1e-12


angle = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def unitary_coin(draw) -> CoinMatrix:
    """e^(i phi) [[cos t e^(i a), sin t e^(i b)], [-sin t e^(-i b), cos t e^(-i a)]]."""
    t, a, b, phi = (draw(angle) for _ in range(4))
    u = cmath.exp(1j * phi)
    c, s = math.cos(t), math.sin(t)
    return CoinMatrix(
        u * c * cmath.exp(1j * a),
        u * s * cmath.exp(1j * b),
        -u * s * cmath.exp(-1j * b),
        u * c * cmath.exp(-1j * a),
    )


@property_settings
@given(st.lists(unitary_coin(), min_size=1, max_size=8), st.integers(4, 61))
def test_coined_walk_matrix_matches_entry_oracle_bitwise(coins, dim):
    coins = [coins[i % len(coins)] for i in range(dim)]
    got, want = coined_walk_matrix(coins, dim), coined_walk_matrix_by_entry(coins, dim)
    assert got.bands.tobytes() == want.bands.tobytes()
    assert residue_rows(got) == residue_rows(want)


@st.composite
def coin_with_zeros(draw) -> CoinMatrix:
    """The swap coin [[0, p], [q, 0]] or the diagonal coin [[p, 0], [0, q]], |p| = |q| = 1."""
    p, q = (cmath.exp(1j * draw(angle)) for _ in range(2))
    return CoinMatrix(0, p, q, 0) if draw(st.booleans()) else CoinMatrix(p, 0, 0, q)


any_coin = st.one_of(unitary_coin(), coin_with_zeros())


def steps_bitwise_like_full_length(M: BandedUnitary, head: list, steps: int) -> bool:
    v = np.zeros(M.dimension, dtype=complex)
    v[: len(head)] = head
    for state in trajectory(M, WalkState(v), steps):
        v = flush_front(apply_full_length(v, M))
        if state.amplitudes.tobytes() != v.tobytes():
            return False
    return True


@property_settings
@given(st.data())
def test_cmv_trajectory_matches_full_length_stepping_bitwise(data):
    steps = data.draw(st.integers(0, 20))
    head = data.draw(heads)
    dim = max(2 * steps + 8, len(head) + 2 * steps + 2)
    alphas = data.draw(alpha_lists(dim, dim))
    assert steps_bitwise_like_full_length(build_cmv(alphas, dim), head, steps)


@property_settings
@given(st.data())
def test_coined_trajectory_matches_full_length_stepping_bitwise(data):
    steps = data.draw(st.integers(0, 20))
    head = data.draw(heads)
    dim = max(2 * steps + 8, len(head) + 2 * steps + 2)
    # A few generated coins, repeated along the sites.
    coins = data.draw(st.lists(any_coin, min_size=1, max_size=4))
    coins = [coins[i % len(coins)] for i in range(dim)]
    assert steps_bitwise_like_full_length(coined_walk_matrix(coins, dim), head, steps)


@property_settings
@given(st.lists(in_disk, min_size=3, max_size=50), st.data())
def test_spectral_moments_prefix(alphas, data):
    m = build_cmv(alphas, len(alphas))
    n = data.draw(st.integers(0, (m.dimension - 3) // 2))
    k = data.draw(st.integers(0, n))
    assert np.array_equal(spectral_moments(m, n)[: k + 1], spectral_moments(m, k))


def killed_walk_checks(M: BandedUnitary, max_n: int) -> None:
    amps = first_return_numeric(M, max_n)
    assert amps.tobytes() == first_return_full_length(M, max_n).tobytes()
    # The mass the killed walk loses is the probability of ever returning.
    assert float(np.sum(np.abs(amps) ** 2)) <= 1 + 1e-12


@st.composite
def killed_cmv_walks(draw) -> tuple[list[complex], int]:
    """Coefficients, and a number of steps their operator has room for."""
    alphas = draw(alpha_lists(3, 60))
    return alphas, draw(st.integers(0, (len(alphas) - 3) // 2))


@property_settings
@given(killed_cmv_walks())
# No coefficient is zero, so a step reaches new residues mod PERIOD: the
# second step reads rows that the first step's residue set alone would miss.
@example(([0.5, 0.25j, -0.5, 0.3 + 0.2j, -0.1j, 0.4, 0.2 - 0.3j, -0.6, 0.1, 0.35j], 3))
def test_cmv_first_return_is_the_killed_walk(walk):
    alphas, max_n = walk
    killed_walk_checks(build_cmv(alphas, len(alphas)), max_n)


@property_settings
@given(st.lists(any_coin, min_size=1, max_size=4), st.integers(4, 60), st.data())
def test_coined_first_return_is_the_killed_walk(coins, dim, data):
    coins = [coins[i % len(coins)] for i in range(dim)]
    m = coined_walk_matrix(coins, dim)
    killed_walk_checks(m, data.draw(st.integers(0, (dim - 3) // 2)))


def faithful(M: BandedUnitary, start: np.ndarray, wide_states: list[np.ndarray]) -> bool:
    """Whether stepping ``start`` by ``M`` over the full dimension, with no
    guard, gives each of ``wide_states`` bit for bit up to M's dimension, and
    the wider states are zero beyond it."""
    v, dim = start, M.dimension
    for want in wide_states:
        v = apply_full_length(v, M)
        if v.tobytes() != want[:dim].tobytes() or np.any(want[dim:]):
            return False
    return True


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 20), st.sets(st.integers(0, 40), min_size=1, max_size=4), st.data())
def test_evolve_guard_matches_scanning_rule(steps, support, data):
    # At every dimension that holds the state, the guard raises exactly when
    # the truncation is not faithful to a run with room to spare.  The
    # support grows by at most two indices a step, so high + 2 * steps + 2
    # has room.  A zero state is faithful at every dimension and is guarded
    # as the origin, so the support is never empty.  Moduli bounded away
    # from 0 and 1 leave no move of the walk with a zero amplitude.
    high = max(support)
    wide_dim = high + 2 * steps + 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    radii = rng.uniform(0.1, 0.9, wide_dim)
    alphas = (radii * np.exp(2j * np.pi * rng.random(wide_dim))).tolist()
    start = np.zeros(wide_dim, dtype=complex)
    start[list(support)] = 1.0
    wide, wide_states = build_cmv(alphas, wide_dim), [start]
    for _ in range(steps):
        wide_states.append(apply_full_length(wide_states[-1], wide))
    for dim in range(max(high + 1, 2), wide_dim + 1):
        M = build_cmv(alphas, dim)
        try:
            evolve(M, WalkState(start[:dim]), steps)
            raised = False
        except ValueError as exc:
            # Only the guard's own message counts as the guard firing.
            guard = rf"{steps} steps from support <= {high} need dimension >= \d+, have {dim}"
            if not re.fullmatch(guard, str(exc)):
                raise
            raised = True
        assert raised == (not faithful(M, start[:dim], wide_states[1:])), dim
