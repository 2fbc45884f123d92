"""Acceptance suite: one test per exit criterion, with stated tolerances.

Each criterion prints a single pass/fail line (run with ``pytest -s`` to see
them live); runtime budgets are asserted alongside the numeric checks.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from expected_values import (
    BACKBONE_17,
    CARATHEODORY_F,
    COUNTS_AT_40,
    NONZERO_PARAMS_36,
    SCHUR_F,
)
from oracles import (
    alpha_from_offsets,
    christoffel_nu,
    progression_contains,
    renewal_amplitudes,
    spectral_moments,
    traditional_walk_test,
)
from rieszwalk import ansatz, walk
from rieszwalk.cmv import build_cmv, unitarity_defect
from rieszwalk.riesz import MeasureVariant, caratheodory_series, moment
from rieszwalk.schur import (
    extract_verblunsky,
    first_return_series,
    schur_from_caratheodory,
)

MU, NU = MeasureVariant.MU, MeasureVariant.NU


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] FAIL {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(
            f"[criterion {number:2d}] FAIL {description} "
            f"(runtime {elapsed:.2f}s over budget {budget:.0f}s)"
        )
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds budget {budget}s")
    print(f"[criterion {number:2d}] PASS {description} ({elapsed:.2f}s)")


def assert_closed_form_is_schur(count: int) -> None:
    """The closed form's first ``count`` non-zero parameters equal the Schur algorithm's.

    The Schur route runs on the dense variant NU, whose m-th parameter is the
    m-th non-zero one of MU.
    """
    closed = [ansatz.nonzero_alpha(m) for m in range(1, count + 1)]
    schur = extract_verblunsky(caratheodory_series(count + 1, NU), count)
    assert len(schur) == count
    mismatch = next((m for m, (a, s) in enumerate(zip(closed, schur), 1) if a != s), None)
    assert mismatch is None, f"first mismatch at m = {mismatch}"


def test_criterion_01_caratheodory_fidelity():
    with criterion(1, "Caratheodory series reproduces every printed term", budget=1.0):
        series = caratheodory_series(64, MU)
        for k in range(65):
            assert series.coefficient(k) == CARATHEODORY_F.get(k, F(0))


def test_criterion_02_schur_expansion_fidelity():
    with criterion(2, "Schur function matches all eight printed coefficients", budget=1.0):
        f = schur_from_caratheodory(caratheodory_series(32, MU))
        for k in range(32):
            assert f.coefficient(k) == SCHUR_F.get(k, F(0))


def test_criterion_03_verblunsky_table_fidelity():
    with criterion(3, "Schur algorithm reproduces the printed parameter table", budget=10.0):
        values = extract_verblunsky(caratheodory_series(41, NU), 40)
        assert values[:36] == NONZERO_PARAMS_36
        # The table in print stops at 36 values; the remaining extracted ones
        # must still match the closed form.
        for m in range(37, 41):
            assert values[m - 1] == ansatz.nonzero_alpha(m)


def test_criterion_04_backbone_fidelity():
    with criterion(4, "backbone anchors and progression tallies as printed", budget=1.0):
        assert [ansatz.backbone(i) for i in range(1, 18)] == BACKBONE_17
        counts = [sum(progression_contains(j, t) for t in range(1, 41)) for j in range(40)]
        assert counts[:7] == COUNTS_AT_40
        assert not any(counts[7:])
        # The tallies weighted by weight(4 + j) are the backbone's count through 40.
        tally = sum(c * ansatz.weight(4 + j) for j, c in enumerate(COUNTS_AT_40))
        assert ansatz.backbone(41) == 13 + tally


def test_criterion_05_ansatz_verification_512():
    with criterion(5, "closed form equals Schur algorithm for m <= 512", budget=900.0):
        assert_closed_form_is_schur(512)


def test_ansatz_verification_1500():
    # The benchmark's size, where the Schur loop crosses many block boundaries.
    assert_closed_form_is_schur(1500)


def test_criterion_06_offset_formula_coherence():
    with criterion(6, "offset recipe equals closed form through index 2047"):
        assert alpha_from_offsets(43) == F(21, 32)
        assert alpha_from_offsets(47) == F(-1, 53)
        for j in range(15, 4 * 512, 4):
            assert alpha_from_offsets(j) == ansatz.alpha(j)


def test_criterion_07_first_return_oracle_triangle():
    with criterion(7, "three first-return routes agree through step 200", budget=60.0):
        f = schur_from_caratheodory(caratheodory_series(200, MU))
        via_schur = first_return_series(f)
        via_renewal = renewal_amplitudes([moment(j) for j in range(201)])
        assert list(via_schur.amplitudes) == via_renewal
        numeric = walk.first_return_numeric(walk.riesz_walk_matrix(408), 200)
        for n in range(1, 201):
            assert abs(numeric[n - 1] - float(via_schur.amplitudes[n - 1])) <= 1e-8


def test_criterion_08_unitarity_and_conservation():
    with criterion(8, "unitarity at dim 1608 and 800-step conservation", budget=60.0):
        riesz = walk.riesz_walk_matrix(1608)
        hadamard = walk.coined_walk_matrix(walk.HADAMARD_COIN, 1608)
        assert unitarity_defect(riesz) <= 1e-12
        assert unitarity_defect(hadamard) <= 1e-12
        assert unitarity_defect(build_cmv(walk.hadamard_alpha(1608))) <= 1e-12
        for matrix in (riesz, hadamard):
            state = walk.evolve(matrix, walk.WalkState.origin_up(1608), 800)
            dist = walk.position_distribution(state)
            assert abs(float(np.sum(dist.probabilities)) - 1) <= 1e-10
            assert np.all(dist.probabilities[801:] == 0)


def test_criterion_09_limit_point_law():
    with criterion(9, "limit law |value - 2/3| = 4^-p / 6 and extreme points"):
        for p in range(11):
            m = (1 + 2 * 4**p) // 3
            assert F(2, 3) - ansatz.nonzero_alpha(m) == F(1, 6 * 4**p)
        pool = sum(ansatz.limit_values(64), ())
        assert max(pool) == F(2, 3)
        assert min(pool) == F(-2, 9)


def test_criterion_10_partition_properties():
    with criterion(10, "progression partition and index bijection", budget=30.0):
        for t in range(-10_000, 10_001):
            homes = sum(progression_contains(j, t) for j in range(31))
            assert homes == 1, f"{t} belongs to {homes} progressions"
        for m in range(1, 1_000_001):
            n, p = ansatz.decompose_index(m)
            assert (1 + (3 * n - 1) * 4**p) // 3 == m
            assert n % 4 != 3
        # Surjectivity onto the index range, sampled across classes.
        for n in range(1, 1000):
            if n % 4 == 3:
                continue
            p = 0
            while True:
                m = (1 + (3 * n - 1) * 4**p) // 3
                if m > 1_000_000:
                    break
                assert ansatz.decompose_index(m) == (n, p)
                p += 1


def test_criterion_11_hadamard_evenness():
    # The Hadamard Schur function is even, so its Taylor coefficients vanish
    # at odd orders; the step-n first-return amplitude is the order n-1
    # coefficient, hence the amplitudes vanish at even step counts.
    with criterion(11, "Hadamard evenness and the traditional-walk test"):
        matrix = walk.coined_walk_matrix(walk.HADAMARD_COIN, 308)
        amplitudes = walk.first_return_numeric(matrix, 150)
        for n in range(2, 151, 2):
            assert abs(amplitudes[n - 1]) <= 1e-12
        assert abs(amplitudes[0]) > 0.7  # step 1 via the reflecting origin

        moments = spectral_moments(matrix, 60)
        F_hadamard = [1.0 + 0j] + [2 * v for v in moments[1:]]
        assert traditional_walk_test(F_hadamard, tol=1e-10) is True
        F_riesz = caratheodory_series(40, MU)
        assert traditional_walk_test(F_riesz.coefficients) is False


def test_extended_ansatz_verification_6000():
    assert_closed_form_is_schur(6000)


def test_closed_form_is_the_christoffel_route_through_20000():
    # The Christoffel route reads no moments and no series, so it carries
    # closed form = exact Verblunsky data past the Schur loop's reach.
    route = christoffel_nu(20000)
    assert route[:512] == extract_verblunsky(caratheodory_series(513, NU), 512)
    closed = [ansatz.nonzero_alpha(m) for m in range(1, 20001)]
    assert len(route) == len(closed)
    mismatch = next((m for m, (a, c) in enumerate(zip(closed, route), 1) if a != c), None)
    assert mismatch is None, f"first mismatch at m = {mismatch}"
