from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from expected_values import (
    CARATHEODORY_F,
    INTERLEAVED_FIRST_8,
    NONZERO_PARAMS_36,
    SCHUR_F,
)
from oracles import scale, substitute_quartic
from rieszwalk.riesz import MeasureVariant, caratheodory_series, moment
from rieszwalk.schur import (
    FirstReturnSeries,
    InsufficientPrecision,
    ParameterOutOfDisk,
    PrecisionExhausted,
    cumulative_return_probability,
    extract_verblunsky,
    first_return_series,
    renewal_first_return,
    schur_from_caratheodory,
)
from rieszwalk.series import TruncatedSeries

MU, NU = MeasureVariant.MU, MeasureVariant.NU


# -- oracle: the Schur algorithm stepped on Fraction series -----------------------
#
# The textbook iteration, one series division per step.  It is the
# independent reference that extract_verblunsky's fraction-free loop must
# reproduce bit for bit.


@dataclass(frozen=True)
class SchurState:
    """Iterate of the Schur algorithm after ``step`` parameter extractions."""

    current: TruncatedSeries
    step: int = 0
    extracted: tuple[F, ...] = ()


def schur_step(state: SchurState) -> SchurState:
    """One Schur iteration: strip the constant term, Moebius-shift, divide by z."""
    f = state.current
    if f.valid_order < 1:
        raise PrecisionExhausted(
            f"valid_order {f.valid_order} at step {state.step}: cannot step again"
        )
    alpha = f.coefficient(0)
    if abs(alpha) >= 1:
        raise ParameterOutOfDisk(f"|alpha_{state.step}| = |{alpha}| >= 1")
    numerator = f.add_constant(-alpha)
    denominator = scale(f, -alpha).add_constant(1)
    nxt = numerator.shift_down() / denominator
    return SchurState(nxt, state.step + 1, state.extracted + (alpha,))


def riesz_schur_function(order: int) -> TruncatedSeries:
    return schur_from_caratheodory(caratheodory_series(order + 1, MU))


def run_steps(f: TruncatedSeries, count: int) -> SchurState:
    state = SchurState(f)
    for _ in range(count):
        state = schur_step(state)
    return state


def test_schur_function_matches_known_expansion():
    f = riesz_schur_function(31)
    for k in range(32):
        assert f.coefficient(k) == SCHUR_F.get(k, F(0))


def test_caratheodory_matches_known_expansion():
    series = caratheodory_series(64, MU)
    for k in range(65):
        assert series.coefficient(k) == CARATHEODORY_F.get(k, F(0))


def test_schur_of_trivial_measure_is_zero():
    f = schur_from_caratheodory(TruncatedSeries([1], 10))
    assert f.valid_order == 9
    assert all(c == 0 for c in f.coefficients)


def test_schur_of_point_mass_is_unimodular_constant():
    # F = (1+z)/(1-z) has coefficients 1, 2, 2, ...; its Schur function is
    # identically 1, which the first extraction step must reject.
    F_series = TruncatedSeries([1] + [2] * 10, 10)
    f = schur_from_caratheodory(F_series)
    assert f.coefficient(0) == 1
    assert all(f.coefficient(k) == 0 for k in range(1, 10))
    with pytest.raises(ParameterOutOfDisk):
        schur_step(SchurState(f))


def test_schur_requires_unit_constant():
    with pytest.raises(ValueError):
        schur_from_caratheodory(TruncatedSeries([2, 1], 5))


def test_first_step_dense_variant():
    g = schur_from_caratheodory(caratheodory_series(6, NU))
    state = schur_step(SchurState(g))
    assert state.extracted == (F(1, 2),)


def test_first_step_sparse_variant():
    f = riesz_schur_function(6)
    state = schur_step(SchurState(f))
    assert state.extracted == (F(0),)


def test_steps_on_zero_series():
    state = run_steps(TruncatedSeries([], 8), 5)
    assert state.extracted == (F(0),) * 5
    assert state.step == 5


def test_step_precision_ledger():
    g = schur_from_caratheodory(caratheodory_series(12, NU))
    state = run_steps(g, 7)
    assert state.current.valid_order == g.valid_order - 7


def test_step_exhausts_precision():
    state = SchurState(TruncatedSeries([], 0))
    with pytest.raises(PrecisionExhausted):
        schur_step(state)


def test_extract_first_twelve():
    G = caratheodory_series(13, NU)
    assert extract_verblunsky(G, 12) == NONZERO_PARAMS_36[:12]


def test_extract_printed_table():
    G = caratheodory_series(37, NU)
    assert extract_verblunsky(G, 36) == NONZERO_PARAMS_36


def test_extract_interleaved_first_eight():
    F_series = caratheodory_series(9, MU)
    assert extract_verblunsky(F_series, 8) == INTERLEAVED_FIRST_8


def test_extract_requires_orders():
    with pytest.raises(PrecisionExhausted):
        extract_verblunsky(caratheodory_series(10, NU), 10)


def test_extract_agrees_with_stepping():
    G = caratheodory_series(26, NU)
    fast = extract_verblunsky(G, 24)
    slow = run_steps(schur_from_caratheodory(G), 24).extracted
    assert tuple(fast) == slow

    F_series = caratheodory_series(26, MU)
    fast = extract_verblunsky(F_series, 24)
    slow = run_steps(schur_from_caratheodory(F_series), 24).extracted
    assert tuple(fast) == slow


def test_interleaving_composition_law():
    # Substituting z^4 into the dense Caratheodory series gives the sparse
    # one, and the parameter sequences interleave with three zeros.
    G = caratheodory_series(12, NU)
    assert substitute_quartic(G) == caratheodory_series(51, MU)

    sparse = extract_verblunsky(caratheodory_series(20, MU), 19)
    dense = extract_verblunsky(caratheodory_series(6, NU), 4)
    for i, value in enumerate(sparse):
        if i % 4 == 3:
            assert value == dense[(i + 1) // 4 - 1]
        else:
            assert value == 0


def test_even_schur_function_has_zero_odd_parameters():
    state = run_steps(TruncatedSeries([0, 0, F(1, 2)], 12), 8)
    assert all(a == 0 for a in state.extracted[1::2])


def test_riesz_parameters_live_on_residue_three():
    values = extract_verblunsky(caratheodory_series(25, MU), 24)
    for i, value in enumerate(values):
        if i % 4 != 3:
            assert value == 0
        else:
            assert value != 0


def test_first_return_values():
    f = riesz_schur_function(30)
    series = first_return_series(f, 28)
    assert series.amplitudes[:4] == (F(0), F(0), F(0), F(1, 2))
    assert series.amplitudes[27] == F(-17, 128)


def test_first_return_needs_orders():
    f = riesz_schur_function(10)
    with pytest.raises(InsufficientPrecision):
        first_return_series(f, 12)
    assert len(first_return_series(f, 0).amplitudes) == 0


def test_renewal_examples():
    moments = [moment(j) for j in range(9)]
    series = renewal_first_return(moments, 8)
    assert series.amplitudes[3] == F(1, 2)
    assert series.amplitudes[:3] == (F(0),) * 3

    silent = renewal_first_return([F(1)] + [F(0)] * 8, 8)
    assert all(a == 0 for a in silent.amplitudes)


def test_renewal_input_validation():
    with pytest.raises(ValueError):
        renewal_first_return([F(2), F(0)], 1)
    with pytest.raises(ValueError):
        renewal_first_return([F(1)], 3)


def test_renewal_agrees_with_schur_route():
    # Two independent paths to the same amplitudes: Taylor coefficients of
    # the Schur function vs inversion of the moment generating series.
    f = riesz_schur_function(200)
    via_schur = first_return_series(f, 200)
    via_renewal = renewal_first_return([moment(j) for j in range(201)], 200)
    assert via_schur.amplitudes == via_renewal.amplitudes


def test_cumulative_return_probability():
    f = riesz_schur_function(200)
    series = first_return_series(f, 200)
    sums = cumulative_return_probability(series)
    assert sums[3] == F(1, 4)
    assert sums[7] == F(5, 16)
    assert all(s1 <= s2 for s1, s2 in zip(sums, sums[1:]))
    assert sums[-1] <= 1
    assert cumulative_return_probability(FirstReturnSeries(())) == ()


def test_first_return_series_rejects_excess_probability():
    with pytest.raises(ValueError):
        FirstReturnSeries((F(1), F(1)))
    # A total of exactly one is a valid return probability.
    exact = FirstReturnSeries((F(3, 5), F(4, 5)))
    assert cumulative_return_probability(exact) == (F(9, 25), F(1))
    # The partial sums pass one only at the last term.
    with pytest.raises(ValueError):
        FirstReturnSeries((F(3, 5), F(4, 5), F(1, 1000)))
