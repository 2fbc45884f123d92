import math
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from expected_values import (
    CARATHEODORY_F,
    INTERLEAVED_FIRST_8,
    NONZERO_PARAMS_36,
    SCHUR_F,
)
from oracles import add, divide, poly, renewal_amplitudes, scale, substitute_quartic
from rieszwalk import schur
from rieszwalk.riesz import MeasureVariant, caratheodory_series, moment
from rieszwalk.schur import (
    _BLOCK,
    FirstReturnSeries,
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
# reproduce bit for bit.  It divides with the oracle's long division, which
# stays fast on its chain of general rational divisors.


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
        raise ValueError(
            f"valid_order {f.valid_order} at step {state.step}: cannot step again"
        )
    alpha = f.coefficient(0)
    if abs(alpha) >= 1:
        raise ValueError(f"|alpha_{state.step}| = |{alpha}| >= 1")
    # (f - alpha) / z drops f's constant term, and with it one order.
    numerator = TruncatedSeries(f.coefficients[1:])
    denominator = add(poly([1], f.valid_order), scale(f, -alpha))
    nxt = divide(numerator, denominator)
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
    f = schur_from_caratheodory(poly([1], 10))
    assert f.valid_order == 9
    assert all(c == 0 for c in f.coefficients)


def test_schur_of_point_mass_is_unimodular_constant():
    # F = (1+z)/(1-z) has coefficients 1, 2, 2, ...; its Schur function is
    # identically 1, which the first extraction step must reject.
    F_series = TruncatedSeries([1] + [2] * 10)
    f = schur_from_caratheodory(F_series)
    assert f.coefficient(0) == 1
    assert all(f.coefficient(k) == 0 for k in range(1, 10))
    with pytest.raises(ValueError, match=r"^\|alpha_0\| = \|1\| >= 1$"):
        schur_step(SchurState(f))
    with pytest.raises(ValueError, match=r"^\|alpha_0\| >= 1$"):
        extract_verblunsky(F_series, 5)


def test_schur_requires_unit_constant():
    # Both routes share one check and its message.  -1 makes F + 1 vanish at
    # 0, so a division would fail first, with its own error.
    message = "^Caratheodory series must have constant term 1$"
    for constant in (2, 0, -1, F(1, 2)):
        with pytest.raises(ValueError, match=message):
            schur_from_caratheodory(poly([constant, 1], 5))
        with pytest.raises(ValueError, match=message):
            extract_verblunsky(poly([constant, 1], 5), 3)
    with pytest.raises(ValueError, match=message):
        schur_from_caratheodory(TruncatedSeries([]))


def test_schur_of_constant_term_alone_is_empty():
    # f's order k reads F's order k + 1, so no order of f is trusted.
    assert schur_from_caratheodory(TruncatedSeries([1])) == TruncatedSeries([])


def test_first_step_dense_variant():
    g = schur_from_caratheodory(caratheodory_series(6, NU))
    state = schur_step(SchurState(g))
    assert state.extracted == (F(1, 2),)


def test_first_step_sparse_variant():
    f = riesz_schur_function(6)
    state = schur_step(SchurState(f))
    assert state.extracted == (F(0),)


def test_steps_on_zero_series():
    state = run_steps(poly([], 8), 5)
    assert state.extracted == (F(0),) * 5
    assert state.step == 5


def test_step_precision_ledger():
    g = schur_from_caratheodory(caratheodory_series(12, NU))
    state = run_steps(g, 7)
    assert state.current.valid_order == g.valid_order - 7


def test_step_exhausts_precision():
    state = SchurState(poly([], 0))
    with pytest.raises(ValueError, match="valid_order 0 at step 0: cannot step again"):
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
    with pytest.raises(ValueError, match="need valid_order >= 11, have 10"):
        extract_verblunsky(caratheodory_series(10, NU), 10)


def test_extract_agrees_with_stepping():
    # Counts on both sides of the first two block boundaries, on the dense
    # series and on the sparse one, whose steps are mostly alpha = 0.
    top = 2 * _BLOCK + 1
    for variant in (NU, MU):
        G = caratheodory_series(top + 1, variant)
        slow = run_steps(schur_from_caratheodory(G), top).extracted
        for count in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, top):
            assert tuple(extract_verblunsky(G, count)) == slow[:count]


@st.composite
def positive_trigonometric_measures(draw):
    """Caratheodory series [1, c_1, ..., c_m] of the density 1 + sum c_j cos(j theta).

    The rational c_j have sum |c_j| < 1, so the density is positive and the
    measure is nontrivial: every Verblunsky parameter lies in the open disk.
    """
    numerators = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    denominator = sum(map(abs, numerators)) + draw(st.integers(1, 30))
    return poly([1] + [F(a, denominator) for a in numerators], 41)


@settings(deadline=None, max_examples=15)
@given(positive_trigonometric_measures(), st.sampled_from((1, 3, 16)))
# A density whose second product needs the top byte of its slots.
@example(poly([1, 0, F(6, 46), F(2, 46), F(9, 46)], 41), 16)
def test_extract_agrees_with_stepping_on_positive_densities(G, block):
    # The stepper cannot afford two blocks of the real size on these
    # densities, so the blocks shrink: 40 steps in blocks of 16 are two full
    # blocks and a partial one, and span more than two content strips.
    slow = run_steps(schur_from_caratheodory(G), 40).extracted
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schur, "_BLOCK", block)
        fast = extract_verblunsky(G, 40)
    assert tuple(fast) == slow
    assert all(abs(a) < 1 for a in fast)


def test_pack_round_trips_at_the_slot_extremes():
    for width in range(1, 17):
        top = (1 << (8 * width - 1)) - 1
        values = [top, -top, 0, -top, -1, top, 1]
        packed = schur._pack(values, width)
        assert schur._unpack(packed, width, len(values), 0, len(values)) == values
        assert schur._unpack(packed, width, len(values), 2, 5) == values[2:5]


def test_extract_rejects_finite_support_past_a_content_strip():
    # The uniform measure on the 20th roots of unity has 20 support points,
    # so alpha_0..alpha_18 lie in the disk and alpha_19 on its boundary.
    roots = TruncatedSeries([1] + [2 if j % 20 == 0 else 0 for j in range(1, 31)])
    inside = extract_verblunsky(roots, 19)
    assert all(abs(a) < 1 for a in inside)
    with pytest.raises(ValueError, match=r"^\|alpha_19\| >= 1$"):
        extract_verblunsky(roots, 25)


@pytest.mark.parametrize("support", (60, _BLOCK + 16))
def test_extract_rejects_finite_support_past_a_block(support):
    # The uniform measure on the support-th roots of unity: every parameter
    # before alpha_(support-1) is zero, and that one lies on the boundary.
    # With _BLOCK + 16 roots it comes after the first product.
    roots = TruncatedSeries(
        [1] + [2 if j % support == 0 else 0 for j in range(1, support + 12)]
    )
    assert extract_verblunsky(roots, support - 1) == [F(0)] * (support - 1)
    with pytest.raises(ValueError, match=rf"^\|alpha_{support - 1}\| >= 1$"):
        extract_verblunsky(roots, support + 10)


def test_extract_strips_content_and_bounds_growth(monkeypatch):
    # White-box guard: a loop that stays exact but stops dividing out the
    # integer content would let the entries grow by the bit length of an
    # alpha denominator on every step.
    G = caratheodory_series(601, NU)
    real_gcd = math.gcd
    calls = []

    def spy(*args):
        calls.append((len(args), max((v.bit_length() for v in args), default=0)))
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    extract_verblunsky(G, 600)
    monkeypatch.undo()
    assert sum(1 for n_args, _ in calls if n_args > 2) >= 600 // 16
    assert max(bits for _, bits in calls) <= 400


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
    state = run_steps(poly([0, 0, F(1, 2)], 12), 8)
    assert all(a == 0 for a in state.extracted[1::2])


def test_riesz_parameters_live_on_residue_three():
    values = extract_verblunsky(caratheodory_series(25, MU), 24)
    for i, value in enumerate(values):
        if i % 4 != 3:
            assert value == 0
        else:
            assert value != 0


def test_first_return_values():
    # f trusted through order 27 gives steps 1..28.
    series = first_return_series(riesz_schur_function(27))
    assert len(series.amplitudes) == 28
    assert series.amplitudes[:4] == (F(0), F(0), F(0), F(1, 2))
    assert series.amplitudes[27] == F(-17, 128)
    assert first_return_series(TruncatedSeries([])).amplitudes == ()


def test_renewal_examples():
    moments = [moment(j) for j in range(9)]
    series = renewal_first_return(moments, 8)
    assert series.amplitudes[3] == F(1, 2)
    assert series.amplitudes[:3] == (F(0),) * 3

    silent = renewal_first_return([F(1)] + [F(0)] * 8, 8)
    assert all(a == 0 for a in silent.amplitudes)


def test_renewal_input_validation():
    with pytest.raises(ValueError, match="^zeroth moment must be 1$"):
        renewal_first_return([F(2), F(0)], 1)
    with pytest.raises(ValueError, match="^need 4 moments, got 1$"):
        renewal_first_return([F(1)], 3)


def test_renewal_agrees_with_schur_route():
    # Two independent paths to the same amplitudes: Taylor coefficients of
    # the Schur function, through TruncatedSeries.reciprocal, vs the test
    # oracle's long-division inversion of the moment generating series.
    moments = [moment(j) for j in range(201)]
    via_schur = first_return_series(riesz_schur_function(199))
    assert list(via_schur.amplitudes) == renewal_amplitudes(moments)
    assert renewal_first_return(moments, 200).amplitudes == via_schur.amplitudes


def test_cumulative_return_probability():
    series = first_return_series(riesz_schur_function(199))
    sums = cumulative_return_probability(series)
    assert sums[3] == F(1, 4)
    assert sums[7] == F(5, 16)
    assert all(s1 <= s2 for s1, s2 in zip(sums, sums[1:]))
    assert sums[-1] <= 1
    assert cumulative_return_probability(FirstReturnSeries(())) == ()


def test_first_return_series_rejects_excess_probability():
    with pytest.raises(ValueError, match="^cumulative return probability exceeds 1$"):
        FirstReturnSeries((F(1), F(1)))
    # A total of exactly one is a valid return probability.
    exact = FirstReturnSeries((F(3, 5), F(4, 5)))
    assert cumulative_return_probability(exact) == (F(9, 25), F(1))
    # The partial sums pass one only at the last term.
    with pytest.raises(ValueError, match="^cumulative return probability exceeds 1$"):
        FirstReturnSeries((F(3, 5), F(4, 5), F(1, 1000)))


def test_first_return_series_cannot_be_changed_past_its_check():
    series = FirstReturnSeries((F(3, 5), F(4, 5)))
    for name in ("amplitudes", "cumulative"):
        with pytest.raises(AttributeError):
            setattr(series, name, (F(1), F(1)))
        with pytest.raises(AttributeError):
            delattr(series, name)
    assert series.cumulative == (F(9, 25), F(1))
