import math
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (
    apply_full_length,
    coined_walk_matrix_by_entry,
    dense,
    first_return_by_renewal,
    first_return_full_length,
    flush_front,
    hadamard_first_return,
    residue_rows,
    spectral_moments,
    traditional_walk_test,
)
from rieszwalk.cmv import build_cmv, unitarity_defect
from rieszwalk.riesz import MeasureVariant, caratheodory_series, moment
from rieszwalk.walk import (
    HADAMARD_COIN,
    CoinMatrix,
    WalkState,
    coined_walk_matrix,
    evolve,
    first_return_numeric,
    hadamard_alpha,
    position_distribution,
    riesz_walk_matrix,
    trajectory,
)

R = 1 / math.sqrt(2)
TINY = np.finfo(float).tiny  # the smallest normal float, 2 ** -1022


def guard_message(steps: int, high: int, needed: int, have: int) -> str:
    """The light-cone guard's message, as a ``pytest.raises`` pattern."""
    return f"^{steps} steps from support <= {high} need dimension >= {needed}, have {have}$"


def random_coin(seed: int) -> CoinMatrix:
    """A unitary coin with genuinely complex entries."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return CoinMatrix(*(complex(x) for x in q.ravel()))


def constant_coin_schur_coeffs(a: complex, max_order: int) -> np.ndarray:
    """Taylor coefficients of the constant-coin Schur function.

    f(z) = (z^2 - 1 + sqrt((z^2 - 1)^2 + 4 |a|^2 z^2)) / (2 conj(a) z^2),
    expanded by a floating-point series square root with constant term 1.
    The numerator vanishes to second order, so the division by z^2 is an
    index shift.  This closed form is the oracle the matrix route is tested
    against.
    """
    if a == 0:
        raise ValueError("constant coin parameter must be non-zero")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    n_orders = max_order + 3
    q = np.zeros(n_orders, dtype=complex)
    q[0] = 1.0
    if n_orders > 2:
        q[2] = 4.0 * abs(a) ** 2 - 2.0
    if n_orders > 4:
        q[4] = 1.0
    s = np.zeros(n_orders, dtype=complex)
    s[0] = 1.0
    for n in range(1, n_orders):
        acc = q[n]
        for i in range(1, n):
            acc -= s[i] * s[n - i]
        s[n] = acc / 2.0
    numer = s.copy()
    numer[0] -= 1.0
    if n_orders > 2:
        numer[2] += 1.0
    return numer[2:] / (2.0 * np.conj(a))


def solve_diagonal_conjugation(U, C):
    """Find unit phases d with d_r U[r,c] / d_c = C[r,c] on all entries.

    Greedy propagation from d_0 = 1; returns None if the systems are
    inconsistent.  This is the oracle that pins down the Verblunsky sequence
    of the coined walk rather than assuming it.
    """
    dim = U.dimension
    target = dense(C)
    d = np.full(dim, np.nan, dtype=complex)
    d[0] = 1.0
    entries = list(U.nonzero_entries())
    for _ in range(dim):
        progress = False
        for r, c, v in entries:
            cv = target[r, c]
            if abs(cv) < 1e-14:
                return None
            known_r, known_c = not np.isnan(d[r].real), not np.isnan(d[c].real)
            if known_r and not known_c:
                d[c] = d[r] * v / cv
                progress = True
            elif known_c and not known_r:
                d[r] = d[c] * cv / v
                progress = True
        if not progress:
            break
    for r, c, v in entries:
        if np.isnan(d[r].real) or np.isnan(d[c].real):
            continue
        if abs(d[r] * v / d[c] - target[r, c]) > 1e-13:
            return None
    return d


# -- coins and coined matrices --------------------------------------------------


def test_hadamard_coin_is_unitary():
    assert HADAMARD_COIN.unitarity_error() <= 1e-15


def test_non_unitary_coin_rejected():
    with pytest.raises(ValueError, match=r"^coin is not unitary \(error "):
        coined_walk_matrix(CoinMatrix(1, 0, 0, 2), 8)


@pytest.mark.parametrize(
    "entries",
    [(1, 0, 0, 2), (math.nan, 0, 0, 1), (math.inf, 0, 0, 1), (1, 0, 0, complex(0, math.nan))],
)
def test_coin_construction_checks_unitarity(entries):
    with pytest.raises(ValueError, match=r"^coin is not unitary \(error "):
        CoinMatrix(*entries)


def test_coin_cannot_be_changed_past_its_check():
    coin = CoinMatrix(1, 0, 0, 1)
    with pytest.raises(AttributeError):
        coin.c22 = 2
    with pytest.raises(AttributeError):
        del coin.c22
    assert coin.c22 == 1


def test_identity_coins_shift_right():
    m = coined_walk_matrix(CoinMatrix(1, 0, 0, 1), 12)
    full = dense(m)
    assert full[0, 0] == 0
    assert full[0, 2] == 1
    state = WalkState.origin_up(12)
    state = evolve(m, state, 2)
    assert state.amplitudes[4] == 1
    assert np.sum(np.abs(state.amplitudes)) == 1


def test_hadamard_rows():
    m = dense(coined_walk_matrix(HADAMARD_COIN, 8))
    assert m[0, 0] == pytest.approx(R)
    assert m[0, 2] == pytest.approx(R)
    assert m[1, 0] == pytest.approx(-R)
    assert m[1, 2] == pytest.approx(R)
    assert m[2, 1] == pytest.approx(R)
    assert m[2, 4] == pytest.approx(R)


def test_coined_walk_interior_unitarity():
    assert unitarity_defect(coined_walk_matrix(HADAMARD_COIN, 200)) <= 1e-12


def test_coined_walk_validations():
    with pytest.raises(ValueError, match="^dim must be >= 4$"):
        coined_walk_matrix(HADAMARD_COIN, 3)
    with pytest.raises(ValueError, match="^need at least 6 coins, got 2$"):
        coined_walk_matrix([HADAMARD_COIN] * 2, 12)


@pytest.mark.parametrize("dim", [4, 5, 6, 7, 8, 9, 33, 34, 8008])
def test_coined_walk_matrix_matches_entry_oracle_bitwise(dim):
    # Eleven distinct coins cycled over the sites, one more than is consumed.
    pool = [random_coin(seed) for seed in range(11)]
    per_site = [pool[i % 11] for i in range((dim + 1) // 2 + 1)]
    for coins in (HADAMARD_COIN, per_site):
        got, want = coined_walk_matrix(coins, dim), coined_walk_matrix_by_entry(coins, dim)
        assert got.bands.tobytes() == want.bands.tobytes()
        assert residue_rows(got) == residue_rows(want)


# -- Verblunsky sequence of the Hadamard walk ------------------------------------


def test_hadamard_alpha_shape():
    seq = hadamard_alpha(10)
    assert seq[0] == pytest.approx(R)
    assert all(seq[j] == 0 for j in range(1, 10, 2))
    assert all(abs(abs(seq[j]) - R) <= 1e-15 for j in range(0, 10, 2))


def test_hadamard_alpha_conjugation_oracle():
    # The CMV operator of the Hadamard walk's measure must be diagonally
    # phase-equivalent to the coined matrix, entry for entry.
    dim = 64
    U = coined_walk_matrix(HADAMARD_COIN, dim)
    C = build_cmv(hadamard_alpha(dim), dim)
    d = solve_diagonal_conjugation(U, C)
    assert d is not None
    known = ~np.isnan(d.real)
    assert np.max(np.abs(np.abs(d[known]) - 1)) <= 1e-13


def test_hadamard_alpha_entry_magnitudes():
    dim = 32
    U = coined_walk_matrix(HADAMARD_COIN, dim)
    C = build_cmv(hadamard_alpha(dim), dim)
    u_pattern = {(r, c): abs(v) for r, c, v in U.nonzero_entries()}
    c_pattern = {(r, c): abs(v) for r, c, v in C.nonzero_entries()}
    assert u_pattern.keys() == c_pattern.keys()
    for key, mag in u_pattern.items():
        assert abs(mag - c_pattern[key]) <= 1e-12


def test_hadamard_spectral_moments_agree():
    coined = coined_walk_matrix(HADAMARD_COIN, 108)
    cmv = build_cmv(hadamard_alpha(108), 108)
    gaps = np.abs(spectral_moments(coined, 50) - spectral_moments(cmv, 50))
    assert np.max(gaps) <= 1e-10


def test_constant_sign_alpha_does_not_match_the_walk():
    # A constant-sign sequence of the same magnitude describes a rotated
    # measure with different odd moments; the alternation is load-bearing.
    coined = coined_walk_matrix(HADAMARD_COIN, 28)
    const = build_cmv([R if j % 2 == 0 else 0.0 for j in range(28)], 28)
    assert abs(spectral_moments(coined, 3)[3] - spectral_moments(const, 3)[3]) > 0.5


# -- Riesz walk -------------------------------------------------------------------


def test_riesz_walk_entries():
    m = dense(riesz_walk_matrix(8))
    assert m[0, 2] == 1
    assert m[3, 3] == 0
    assert m[2, 3] == pytest.approx(0.5, abs=1e-15)


# -- evolution --------------------------------------------------------------------


def test_evolve_zero_steps_is_identity():
    m = riesz_walk_matrix(16)
    state = WalkState.origin_up(16)
    out = evolve(m, state, 0)
    assert np.array_equal(out.amplitudes, state.amplitudes)
    # Still checked, and still backed by an array, with nothing to step.
    listed = evolve(m, WalkState(state.amplitudes.tolist()), 0)
    assert isinstance(listed.amplitudes, np.ndarray)
    assert np.array_equal(listed.amplitudes, state.amplitudes)
    with pytest.raises(ValueError, match="^state length 8 != dimension 16$"):
        evolve(m, WalkState.origin_up(8), 0)


def test_evolve_hadamard_one_step():
    m = coined_walk_matrix(HADAMARD_COIN, 10)
    out = evolve(m, WalkState.origin_up(10), 1)
    assert out.amplitudes[0] == pytest.approx(R)
    assert out.amplitudes[2] == pytest.approx(R)
    dist = position_distribution(out)
    assert dist.probabilities[0] == pytest.approx(0.5)
    assert dist.probabilities[1] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "matrix",
    [riesz_walk_matrix(108), coined_walk_matrix(HADAMARD_COIN, 108)],
    ids=["riesz", "hadamard"],
)
def test_trajectory_states_are_evolve_states(matrix):
    start = WalkState.origin_up(108)
    states = list(trajectory(matrix, start, 50))
    assert len(states) == 50
    for k, state in enumerate(states, 1):
        assert state.amplitudes.tobytes() == evolve(matrix, start, k).amplitudes.tobytes()


@pytest.mark.parametrize("walk", ["riesz", "hadamard", "complex"])
def test_trajectory_matches_full_length_stepping_bitwise(walk):
    dim = 808
    if walk == "riesz":
        matrix = riesz_walk_matrix(dim)
    else:
        coin = HADAMARD_COIN if walk == "hadamard" else random_coin(5)
        matrix = coined_walk_matrix(coin, dim)
    v = WalkState.origin_up(dim).amplitudes
    for state in trajectory(matrix, WalkState.origin_up(dim), 400):
        v = flush_front(apply_full_length(v, matrix))
        assert state.amplitudes.tobytes() == v.tobytes()


def test_trajectory_from_a_spread_state_matches_full_length_stepping_bitwise():
    matrix = coined_walk_matrix(random_coin(6), 120)
    v = np.zeros(120, dtype=complex)
    v[3:30] = np.random.default_rng(6).normal(size=27)
    for state in trajectory(matrix, WalkState(v), 40):
        v = flush_front(apply_full_length(v, matrix))
        assert state.amplitudes.tobytes() == v.tobytes()


def test_hadamard_sub_normal_front_is_flushed_without_moving_a_printed_bit():
    # The exact front amplitude after n Hadamard steps is 2 ** (-n / 2), but
    # from step 2044 on unflushed stepping leaves a growing run of sub-normal
    # rounding debris at the top of the support instead.  Each step flushes
    # only that run, and against unflushed stepping the norms, the
    # distribution and every amplitude far from the sub-normal range keep
    # every bit.
    steps = 2400
    dim = 2 * steps + 8
    matrix = coined_walk_matrix(HADAMARD_COIN, dim)
    start = WalkState.origin_up(dim)
    got = unflushed = start.amplitudes
    for state in trajectory(matrix, start, steps):
        stepped = apply_full_length(got, matrix)
        got, unflushed = state.amplitudes, apply_full_length(unflushed, matrix)
        assert got.tobytes() == flush_front(stepped).tobytes()
        front = got[np.flatnonzero(got)[-1]]
        assert max(abs(front.real), abs(front.imag)) >= TINY
        assert state.norm() == WalkState(unflushed).norm()
        large = np.abs(unflushed) >= 2.0**-960
        assert got[large].tobytes() == unflushed[large].tobytes()
    debris = (got == 0) & (unflushed != 0)
    assert np.count_nonzero(debris) > 50
    assert np.all(np.abs(unflushed[debris].real) < TINY)
    assert (
        position_distribution(state).probabilities.tobytes()
        == position_distribution(WalkState(unflushed)).probabilities.tobytes()
    )


def test_hadamard_main_diagonal_span_is_the_origin():
    rows = dict(residue_rows(coined_walk_matrix(HADAMARD_COIN, 40)))
    assert rows[0] == ((0, 0, 0),)


def test_trajectory_checks_before_first_state():
    # The first next() raises: no state comes before the check.
    with pytest.raises(ValueError, match=guard_message(8, 0, 17, 16)):
        next(trajectory(riesz_walk_matrix(16), WalkState.origin_up(16), 8))
    with pytest.raises(ValueError, match="steps must be >= 0"):
        next(trajectory(riesz_walk_matrix(16), WalkState.origin_up(16), -1))
    assert list(trajectory(riesz_walk_matrix(16), WalkState.origin_up(16), 0)) == []


def test_evolve_dim_guard():
    m = riesz_walk_matrix(16)
    with pytest.raises(ValueError, match=guard_message(8, 0, 17, 16)):
        evolve(m, WalkState.origin_up(16), 8)
    with pytest.raises(ValueError, match="^state length 8 != dimension 16$"):
        evolve(m, WalkState.origin_up(8), 1)


def light_cone_operator(walk: str, dim: int):
    """The Riesz, Hadamard-coined or a random complex CMV operator at ``dim``."""
    if walk == "riesz":
        return riesz_walk_matrix(dim)
    if walk == "hadamard":
        return coined_walk_matrix(HADAMARD_COIN, max(dim, 4))  # the builder's floor
    rng = np.random.default_rng(8)
    alphas = rng.uniform(-0.5, 0.5, 200) + 1j * rng.uniform(-0.5, 0.5, 200)
    return build_cmv(alphas.tolist(), dim)


@pytest.mark.parametrize("walk", ["riesz", "hadamard", "complex"])
def test_trajectory_is_faithful_exactly_from_the_light_cone_bound(walk):
    # From a state whose highest non-zero index is high, (high | 1) + 2 * steps
    # is the smallest faithful dimension: there every state is the prefix of
    # the dimension-200 run bit for bit, with zeros beyond; one below, the
    # first next() raises.
    rng = np.random.default_rng(9)
    wide = light_cone_operator(walk, 200)
    for high in range(12):
        start = np.zeros(200, dtype=complex)
        start[: high + 1] = rng.normal(size=high + 1) + 1j * rng.normal(size=high + 1)
        wide_states = [start]
        for _ in range(20):
            wide_states.append(apply_full_length(wide_states[-1], wide))
        for steps in range(1, 21):
            dim = (high | 1) + 2 * steps
            m = light_cone_operator(walk, dim)
            states = trajectory(m, WalkState(start[: m.dimension]), steps)
            for state, want in zip(states, wide_states[1 : steps + 1], strict=True):
                assert state.amplitudes.tobytes() == want[: m.dimension].tobytes()
                assert not np.any(want[m.dimension :]), (high, steps)
            if m.dimension == dim:
                m = light_cone_operator(walk, dim - 1)
                with pytest.raises(ValueError, match=guard_message(steps, high, dim, dim - 1)):
                    next(trajectory(m, WalkState(start[: dim - 1]), steps))


@pytest.mark.parametrize("walk", ["riesz", "hadamard", "complex"])
def test_killed_walk_is_faithful_exactly_from_the_light_cone_bound(walk):
    # The killed walk starts at the origin: 2 * max_n + 1 gives the
    # dimension-200 amplitudes bit for bit, and one below raises.
    wide = first_return_full_length(light_cone_operator(walk, 200), 20)
    for max_n in range(1, 21):
        dim = 2 * max_n + 1
        m = light_cone_operator(walk, dim)
        assert first_return_numeric(m, max_n).tobytes() == wide[:max_n].tobytes()
        if m.dimension == dim:
            with pytest.raises(ValueError, match=guard_message(max_n, 0, dim, dim - 1)):
                first_return_numeric(light_cone_operator(walk, dim - 1), max_n)


def test_evolution_norm_and_support():
    steps = 100
    m = riesz_walk_matrix(2 * steps + 8)
    out = evolve(m, WalkState.origin_up(2 * steps + 8), steps)
    assert abs(out.norm() - 1) <= 1e-10
    dist = position_distribution(out)
    assert float(np.sum(dist.probabilities)) == pytest.approx(1.0, abs=1e-10)
    assert np.all(dist.probabilities[steps + 1 :] == 0)


@pytest.mark.parametrize("coin", ["riesz", "hadamard"])
def test_norm_is_numpys_norm_bitwise(coin):
    # The norm trace prints these floats, so they must be np.linalg.norm's bits.
    steps = 800
    dim = 2 * steps + 8
    if coin == "riesz":
        matrix = riesz_walk_matrix(dim)
    else:
        matrix = coined_walk_matrix(HADAMARD_COIN, dim)
    start = WalkState.origin_up(dim)
    for state in (start, *trajectory(matrix, start, steps)):
        assert state.norm() == float(np.linalg.norm(state.amplitudes))


def test_point_mass_distribution():
    dist = position_distribution(WalkState.origin_up(8))
    assert dist.probabilities[0] == 1
    assert np.all(dist.probabilities[1:] == 0)


def test_riesz_walk_origin_amplitudes_are_the_exact_moments_through_4000():
    # From e0 the state after n steps is e0^T M^n, so its origin amplitude is
    # MU's n-th moment (Cantero, Moral and Velazquez 2003), over the README's
    # walk of 4000 steps at its CLI dimension.  Measured worst gap: 1.1e-15.
    steps = 4000
    dim = 2 * steps + 8
    states = trajectory(riesz_walk_matrix(dim), WalkState.origin_up(dim), steps)
    for n, state in enumerate(states, 1):
        assert abs(state.amplitudes[0] - float(moment(n, MeasureVariant.MU))) <= 1e-13, n


# -- first-return amplitudes --------------------------------------------------------


def test_first_return_riesz_values():
    m = riesz_walk_matrix(2 * 28 + 8)
    amps = first_return_numeric(m, 28)
    assert abs(amps[3] - 0.5) <= 1e-9
    assert abs(amps[27] - (-17 / 128)) <= 1e-8
    assert np.max(np.abs(amps[:3])) <= 1e-12


@pytest.mark.parametrize("coin", ["riesz", "hadamard", "complex"])
def test_first_return_matches_numpy_scalar_renewal_bitwise(coin):
    # Bit for bit the killed walk stepped over the full dimension; within
    # 1e-14 the renewal recursion over the plain return amplitudes.
    if coin == "riesz":
        matrix = riesz_walk_matrix(608)
    else:
        matrix = coined_walk_matrix(HADAMARD_COIN if coin == "hadamard" else random_coin(3), 608)
    amps = first_return_numeric(matrix, 300)
    assert amps.tobytes() == first_return_full_length(matrix, 300).tobytes()
    assert np.max(np.abs(amps - first_return_by_renewal(matrix, 300))) <= 1e-14
    for n in (0, 1):
        small = first_return_numeric(matrix, n)
        assert small.dtype == np.complex128
        assert small.shape == (n,)
        assert small.tobytes() == first_return_full_length(matrix, n).tobytes()


def test_first_return_needs_dimension():
    # Steps 1..max_n need exactly 2 * max_n + 1; one below raises.
    assert first_return_numeric(riesz_walk_matrix(2), 0).shape == (0,)
    for max_n in (1, 10):
        dim = 2 * max_n + 1
        assert first_return_numeric(riesz_walk_matrix(dim), max_n).shape == (max_n,)
        with pytest.raises(ValueError, match=guard_message(max_n, 0, dim, dim - 1)):
            first_return_numeric(riesz_walk_matrix(dim - 1), max_n)


def test_first_return_rejects_negative_count():
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        first_return_numeric(riesz_walk_matrix(16), -1)


def test_hadamard_first_returns_vanish_at_even_steps():
    # The Schur function of the Hadamard walk is even, so its Taylor
    # coefficients vanish at odd orders; the step-n amplitude reads the
    # order n-1 coefficient, hence even steps are silent.
    m = coined_walk_matrix(HADAMARD_COIN, 248)
    amps = first_return_numeric(m, 120)
    even = [abs(amps[n - 1]) for n in range(2, 121, 2)]
    assert max(even) <= 1e-12
    assert abs(amps[0] - R) <= 1e-12
    assert abs(amps[2] - (-1 / (2 * math.sqrt(2)))) <= 1e-12


@pytest.mark.parametrize("operator", ["coined", "cmv"])
def test_hadamard_first_return_matches_closed_form(operator):
    # The coined matrix and the Hadamard CMV operator are diagonally
    # phase-equivalent, and the phases cancel in <e0, M (Q M)^(n-1) e0>.
    # Measured gaps through n = 1000: 5.6e-17 (coined) and 7.9e-17 (CMV).
    n = 1000
    dim = 2 * n + 3
    if operator == "coined":
        m = coined_walk_matrix(HADAMARD_COIN, dim)
    else:
        m = build_cmv(hadamard_alpha(dim), dim)
    assert np.max(np.abs(first_return_numeric(m, n) - hadamard_first_return(n))) <= 1e-15


def test_hadamard_return_probability_approaches_two_over_pi():
    # sum |a_n|^2 = 1/2 + (1/2) sum c_k^2 = 2/pi by Parseval, and the
    # partial sums fall short by 1/(pi N^2) to leading order.
    for n in (101, 1001, 4001):
        p = math.fsum(hadamard_first_return(n) ** 2)
        assert abs((p - 2 / math.pi) * math.pi * n * n + 1) <= 3 / n**2, n


# -- constant-coin closed form --------------------------------------------------------


def test_constant_coin_coeffs_even():
    coeffs = constant_coin_schur_coeffs(R, 99)
    assert coeffs[0] == pytest.approx(R)
    assert max(abs(coeffs[k]) for k in range(1, 100, 2)) == 0


def test_constant_coin_matches_matrix_route():
    # Same measure, two unrelated computations: series square root of the
    # closed form vs renewal inversion of matrix powers.
    coeffs = constant_coin_schur_coeffs(R, 100)
    matrix = build_cmv([R if j % 2 == 0 else 0.0 for j in range(210)], 210)
    amps = first_return_numeric(matrix, 101)
    for n in range(1, 102):
        assert abs(amps[n - 1] - coeffs[n - 1]) <= 1e-8


def test_coined_walk_is_rotated_constant_coin():
    # The coined-walk amplitudes equal the closed-form coefficients up to
    # the alternating sign coming from rotating z by a quarter turn.
    coeffs = constant_coin_schur_coeffs(R, 100)
    m = coined_walk_matrix(HADAMARD_COIN, 210)
    amps = first_return_numeric(m, 101)
    for t in range(50):
        assert abs(amps[2 * t] - (-1) ** t * coeffs[2 * t]) <= 1e-10


def test_constant_coin_zero_rejected():
    with pytest.raises(ValueError, match="^constant coin parameter must be non-zero$"):
        constant_coin_schur_coeffs(0, 10)


def test_constant_coin_small_amplitude_finite():
    coeffs = constant_coin_schur_coeffs(0.01, 50)
    assert np.all(np.isfinite(coeffs))
    assert coeffs[0] == pytest.approx(0.01)


# -- traditional walk characterization --------------------------------------------------


def test_traditional_walk_test_riesz_exact():
    F_series = caratheodory_series(40, MeasureVariant.MU)
    assert traditional_walk_test(F_series.coefficients) is False


def test_traditional_walk_test_hadamard_numeric():
    m = coined_walk_matrix(HADAMARD_COIN, 128)
    moments = spectral_moments(m, 60)
    coeffs = [1.0 + 0j] + [2 * v for v in moments[1:]]
    assert traditional_walk_test(coeffs, tol=1e-10) is True


def test_traditional_walk_test_trivial():
    assert traditional_walk_test([F(1), F(0), F(0), F(0)]) is True
