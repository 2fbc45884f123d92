import random
from fractions import Fraction as F

import pytest

from oracles import add, mul, reciprocal, substitute_quartic
from rieszwalk.riesz import MeasureVariant, caratheodory_series
from rieszwalk.series import NonzeroConstantTerm, TruncatedSeries, ZeroConstantTerm


def S(coeffs, order):
    return TruncatedSeries(coeffs, order)


# ``mul`` and ``reciprocal`` are the term-by-term oracles for the quotient.


@pytest.mark.parametrize("variant", list(MeasureVariant))
def test_kernel_matches_oracle_on_riesz_series(variant):
    F_series = caratheodory_series(300, variant)
    denominator = F_series.add_constant(1)
    numerator = F_series.add_constant(-1)
    inverse = reciprocal(denominator)
    assert S([1], 300) / denominator == inverse
    assert numerator / denominator == mul(numerator, inverse)
    assert numerator.shift_down() / denominator == mul(numerator.shift_down(), inverse)


def test_kernel_matches_oracle_on_generated_series():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # Zeros, integers and non-dyadic fractions of either sign.
    coefficient = st.one_of(
        st.just(0),
        st.integers(-20, 20),
        st.fractions(min_value=-7, max_value=7, max_denominator=60),
    )

    @st.composite
    def series(draw):
        order = draw(st.integers(-1, 14))
        if draw(st.booleans()):  # sparse: a few non-zero entries among zero gaps
            entries = draw(st.dictionaries(st.integers(0, order + 2), coefficient, max_size=4))
            coeffs = [entries.get(k, 0) for k in range(order + 3)]
        else:
            coeffs = draw(st.lists(coefficient, max_size=order + 3))
        return TruncatedSeries(coeffs, order)

    @settings(deadline=None, max_examples=150)
    @given(series(), series())
    def check(a, b):
        if b.valid_order < 0 or not b.coefficients[0]:
            with pytest.raises(ZeroConstantTerm):
                a / b
            return
        quotient = a / b
        order = min(a.valid_order, b.valid_order)
        assert quotient.valid_order == order
        assert quotient == mul(a, reciprocal(b))
        assert mul(quotient, b) == S(a.coefficients, order)

    check()


# ``add`` and ``mul`` are the test-side sum and product; these pin them before
# the division checks rely on them.


def test_add_basic():
    a = S([1, 1], 6)
    b = S([1, -1], 4)
    out = add(a, b)
    assert out.valid_order == 4
    assert list(out.coefficients) == [F(2), 0, 0, 0, 0]


def test_add_identity():
    a = S([F(1, 3), F(2, 7), 5], 9)
    assert add(a, S([], 9)) == a


def test_add_like_terms():
    a = S([0, 0, 0, F(1, 2)], 5)
    b = S([0, 0, 0, F(-1, 4)], 5)
    assert add(a, b).coefficient(3) == F(1, 4)


def test_mul_difference_of_squares():
    out = mul(S([1, 1], 8), S([1, -1], 8))
    assert list(out.coefficients) == [F(1), 0, F(-1)] + [F(0)] * 6
    assert S([1, 0, -1], 8) / S([1, -1], 8) == S([1, 1], 8)


def test_mul_identity():
    a = S([F(3, 5), 0, F(-2, 9), 1], 7)
    assert mul(a, S([1], 7)) == a
    assert a / S([1], 7) == a
    assert a / a == S([1], 7)


def test_mul_telescopes_geometric():
    geometric = S([1] * 11, 10)
    out = mul(geometric, S([1, -1], 10))
    assert out.coefficient(0) == 1
    assert all(out.coefficient(k) == 0 for k in range(1, 11))
    assert S([1], 10) / geometric == S([1, -1], 10)


def test_valid_order_min_rule():
    a = S([1, 2, 3], 2)
    b = S([1], 12)
    assert add(a, b).valid_order == 2
    assert (a / b).valid_order == 2
    assert (b / a).valid_order == 2


def test_reciprocal_geometric():
    out = S([1], 9) / S([1, -1], 9)
    assert out.valid_order == 9
    assert all(out.coefficient(k) == 1 for k in range(10))


def test_reciprocal_constant():
    assert S([1], 3) / S([F(1, 2)], 3) == S([2], 3)
    assert S([3, F(-1, 5)], 3) / S([F(1, 2)], 3) == S([6, F(-2, 5)], 3)


def test_reciprocal_long_division():
    # 1/(1 - z^3/2) = sum (z^3/2)^k, so the z^6 coefficient is 1/4
    out = S([1], 8) / S([1, 0, 0, F(-1, 2)], 8)
    assert out.coefficient(6) == F(1, 4)
    assert out.coefficient(3) == F(1, 2)
    assert out.coefficient(4) == 0


def test_reciprocal_zero_constant_raises():
    with pytest.raises(ZeroConstantTerm):
        S([1], 4) / S([0, 1], 4)
    with pytest.raises(ZeroConstantTerm):
        S([1], 4) / S([], -1)
    with pytest.raises(ZeroConstantTerm):
        S([], -1) / S([0, 1], 4)


def test_shift_down():
    a = S([0, 0, 0, F(1, 2), 0, 0, 0, F(-1, 4)], 9)
    out = a.shift_down()
    assert out.valid_order == 8
    assert out.coefficient(2) == F(1, 2)
    assert out.coefficient(6) == F(-1, 4)


def test_shift_down_monomial():
    assert S([0, 1], 1).shift_down() == S([1], 0)


def test_shift_down_order_ledger():
    assert S([0], 10).shift_down().valid_order == 9


def test_shift_down_nonzero_constant_raises():
    with pytest.raises(NonzeroConstantTerm):
        S([1, 0], 3).shift_down()


def test_substitute_quartic():
    g = S([F(1, 2), F(-1, 3)], 1)
    out = substitute_quartic(g)
    assert out.valid_order == 7
    assert out.coefficient(0) == F(1, 2)
    assert out.coefficient(4) == F(-1, 3)
    assert all(out.coefficient(k) == 0 for k in range(8) if k not in (0, 4))


def test_substitute_quartic_zero_and_monomial():
    assert substitute_quartic(S([], 2)) == S([], 11)
    out = substitute_quartic(S([0, 1], 1))
    assert out.coefficient(4) == 1 and out.valid_order == 7


def test_coefficient_refuses_overread():
    a = S([1, 2, 3], 2)
    with pytest.raises(IndexError):
        a.coefficient(3)
    with pytest.raises(IndexError):
        a.coefficient(-1)


def test_padding_and_truncation_at_construction():
    assert len(S([1], 5).coefficients) == 6
    assert len(S([1, 2, 3, 4], 1).coefficients) == 2


def _random_series(rng, order):
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order + 1)]
    return TruncatedSeries(coeffs, order)


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(60):
        order = rng.randint(0, 7)
        a, b, c = (_random_series(rng, order) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, b) == mul(b, a)
        if c.coefficient(0):
            assert add(a, b) / c == add(a / c, b / c)
            assert mul(a, b) / c == mul(a / c, b)


def test_reciprocal_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        order = rng.randint(0, 9)
        a = _random_series(rng, order)
        if a.coefficient(0) == 0:
            a = a.add_constant(1)
        assert mul(a, S([1], order) / a) == S([1], order)
        b = _random_series(rng, order)
        assert mul(b / a, a) == b
        assert (b / a) / (S([1], order) / a) == b


def test_coefficients_stay_canonical():
    # Fraction keeps gcd(num, den) = 1 and den >= 1; spot-check through ops
    rng = random.Random(99)
    for _ in range(30):
        a = _random_series(rng, 5)
        b = _random_series(rng, 5)
        if b.coefficient(0) == 0:
            b = b.add_constant(1)
        for c in add(a / b, a).coefficients:
            assert c.denominator >= 1
            assert F(c.numerator, c.denominator) == c
