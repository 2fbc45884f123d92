import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import add, divide, mul, poly, reciprocal, scale, substitute_quartic
from rieszwalk.riesz import MeasureVariant, caratheodory_series, moment
from rieszwalk.schur import _fraction_free_start, schur_from_caratheodory
from rieszwalk.series import TruncatedSeries


# ``reciprocal`` is the term-by-term oracle for ``TruncatedSeries.reciprocal``
# and ``mul`` checks that the product with the input is one.


def one(order):
    return poly([1], order)


@pytest.mark.parametrize("variant", list(MeasureVariant))
def test_kernel_matches_oracle_on_riesz_series(variant):
    # R = (F + 1)/2, the moment series that schur_from_caratheodory inverts.
    R = scale(add(caratheodory_series(300, variant), one(300)), F(1, 2))
    inverse = R.reciprocal()
    assert inverse == reciprocal(R)
    assert mul(R, inverse) == one(300)


# Zeros, integers and fractions of either sign, with denominators that hold
# odd primes and high powers of two.
_coefficient = st.one_of(
    st.just(0),
    st.integers(-20, 20),
    st.fractions(min_value=-7, max_value=7, max_denominator=60),
    st.builds(F, st.integers(-9, 9), st.sampled_from([3, 8, 9, 16, 32, 27, 40])),
)


@st.composite
def unit_series(draw):
    """A series with constant term 1, trusted through order 0 to 14."""
    order = draw(st.integers(0, 14))
    if draw(st.booleans()):  # sparse: a few non-zero entries among zero gaps
        entries = draw(st.dictionaries(st.integers(1, order + 2), _coefficient, max_size=4))
        tail = [entries.get(k, 0) for k in range(1, order + 3)]
    else:
        tail = draw(st.lists(_coefficient, max_size=order + 2))
    return poly([1, *tail], order)


@settings(deadline=None, max_examples=150)
@given(unit_series())
# c = 2^e with e = ceil(3/2) = 2, not 3 // 2; and c = 9 << 2.
@example(poly([1, 0, F(1, 8)], 6))
@example(poly([1, F(1, 3), F(-1, 8), 0, F(5, 9)], 9))
def test_kernel_matches_oracle_on_generated_series(r):
    inverse = r.reciprocal()
    assert inverse.valid_order == r.valid_order
    assert inverse == reciprocal(r)
    assert inverse == divide(one(r.valid_order), r)
    assert mul(inverse, r) == one(r.valid_order)


@pytest.mark.parametrize(
    "coefficients",
    [
        pytest.param([1, F(1, 8)], id="c=8"),
        pytest.param([1, 0, 0, F(-1, 16)], id="c=4"),  # e = ceil(4/3)
        pytest.param([1, F(1, 3)], id="c=3"),
        pytest.param([1, F(2, 3), 0, F(-1, 7)], id="c=21"),
        pytest.param([1, F(1, 2), F(3, 40), F(1, 9)], id="c=45<<2"),
    ],
)
def test_reciprocal_general_scale(coefficients):
    r = poly(coefficients, 12)
    assert_orders_equal(r.reciprocal(), divide(one(12), r))


# ``divide`` is the long-division oracle, held to the reciprocal order by
# order on the two inputs that ``first-return --method exact`` and the
# renewal check invert, at their production size.


def assert_orders_equal(quotient, oracle):
    assert quotient.valid_order == oracle.valid_order
    for n, (got, want) in enumerate(zip(quotient.coefficients, oracle.coefficients)):
        assert got == want, f"order {n}: {got} != {want}"


def test_kernel_matches_divide_on_the_schur_start_through_order_1001():
    # NU's Schur function, as ``--max 4004`` computes it, against long
    # division of the integer pair (F - 1)/z and F + 1 that
    # extract_verblunsky starts from.
    F_series = caratheodory_series(1002, MeasureVariant.NU)
    p, q = _fraction_free_start(F_series, 1002)
    assert_orders_equal(schur_from_caratheodory(F_series), divide(poly(p, 1001), poly(q, 1001)))


def test_kernel_matches_divide_on_the_renewal_inverse_through_order_1000():
    # renewal_first_return's 1/r over MU's moments.
    r = poly([moment(j, MeasureVariant.MU) for j in range(1001)], 1000)
    assert_orders_equal(r.reciprocal(), divide(one(1000), r))


# ``add`` and ``mul`` are the test-side sum and product; these pin them before
# the reciprocal checks rely on them.


def test_add_basic():
    a = poly([1, 1], 6)
    b = poly([1, -1], 4)
    out = add(a, b)
    assert out.valid_order == 4
    assert list(out.coefficients) == [F(2), 0, 0, 0, 0]


def test_add_identity():
    a = poly([F(1, 3), F(2, 7), 5], 9)
    assert add(a, poly([], 9)) == a


def test_add_like_terms():
    a = poly([0, 0, 0, F(1, 2)], 5)
    b = poly([0, 0, 0, F(-1, 4)], 5)
    assert add(a, b).coefficient(3) == F(1, 4)


def test_mul_difference_of_squares():
    out = mul(poly([1, 1], 8), poly([1, -1], 8))
    assert list(out.coefficients) == [F(1), 0, F(-1)] + [F(0)] * 6
    assert divide(poly([1, 0, -1], 8), poly([1, -1], 8)) == poly([1, 1], 8)


def test_mul_identity():
    a = poly([F(3, 5), 0, F(-2, 9), 1], 7)
    assert mul(a, poly([1], 7)) == a
    assert divide(a, poly([1], 7)) == a
    assert divide(a, a) == poly([1], 7)


def test_mul_telescopes_geometric():
    geometric = poly([1] * 11, 10)
    out = mul(geometric, poly([1, -1], 10))
    assert out.coefficient(0) == 1
    assert all(out.coefficient(k) == 0 for k in range(1, 11))
    assert geometric.reciprocal() == poly([1, -1], 10)


def test_valid_order_min_rule():
    # add and mul keep the lower valid order; reciprocal keeps its input's.
    a = poly([1, 2, 3], 2)
    b = poly([1], 12)
    assert add(a, b).valid_order == 2
    assert mul(b, a).valid_order == 2
    assert a.reciprocal().valid_order == 2
    assert b.reciprocal() == b


def test_reciprocal_geometric():
    out = poly([1, -1], 9).reciprocal()
    assert out.valid_order == 9
    assert all(out.coefficient(k) == 1 for k in range(10))


def test_reciprocal_long_division():
    # 1/(1 - z^3/2) = sum (z^3/2)^k, so the z^6 coefficient is 1/4
    out = poly([1, 0, 0, F(-1, 2)], 8).reciprocal()
    assert out.coefficient(6) == F(1, 4)
    assert out.coefficient(3) == F(1, 2)
    assert out.coefficient(4) == 0


def test_reciprocal_zero_constant_raises():
    with pytest.raises(ValueError, match="^reciprocal needs constant term 1$"):
        poly([0, 1], 4).reciprocal()
    with pytest.raises(ValueError, match="^reciprocal needs constant term 1$"):
        poly([], -1).reciprocal()


@pytest.mark.parametrize("constant", [2, -1, F(1, 2), F(3, 2)])
def test_reciprocal_rejects_constant_other_than_one(constant):
    with pytest.raises(ValueError, match="^reciprocal needs constant term 1$"):
        poly([constant, 1], 4).reciprocal()


def test_substitute_quartic():
    g = poly([F(1, 2), F(-1, 3)], 1)
    out = substitute_quartic(g)
    assert out.valid_order == 7
    assert out.coefficient(0) == F(1, 2)
    assert out.coefficient(4) == F(-1, 3)
    assert all(out.coefficient(k) == 0 for k in range(8) if k not in (0, 4))


def test_substitute_quartic_zero_and_monomial():
    assert substitute_quartic(poly([], 2)) == poly([], 11)
    out = substitute_quartic(poly([0, 1], 1))
    assert out.coefficient(4) == 1 and out.valid_order == 7


def test_coefficient_refuses_overread():
    a = poly([1, 2, 3], 2)
    with pytest.raises(IndexError):
        a.coefficient(3)
    with pytest.raises(IndexError):
        a.coefficient(-1)


def test_valid_order_cannot_be_overwritten():
    a = poly([1, 2], 1)
    with pytest.raises(AttributeError):
        a.valid_order = 5
    assert a.valid_order == 1
    assert a.reciprocal() == poly([1, -2], 1)


def test_valid_order_is_read_off_the_coefficients():
    assert TruncatedSeries([]).valid_order == -1
    assert TruncatedSeries([1, 0, F(1, 2)]).valid_order == 2
    assert TruncatedSeries([1, 0, 0]) != TruncatedSeries([1, 0])


def _random_series(rng, order):
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order + 1)]
    return TruncatedSeries(coeffs)


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(60):
        order = rng.randint(0, 7)
        a, b, c = (_random_series(rng, order) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, b) == mul(b, a)
        if c.coefficient(0):
            assert divide(add(a, b), c) == add(divide(a, c), divide(b, c))
            assert divide(mul(a, b), c) == mul(divide(a, c), b)


def test_reciprocal_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        order = rng.randint(0, 9)
        a = poly([1, *_random_series(rng, order).coefficients[1:]], order)
        assert mul(a, a.reciprocal()) == one(order)
        assert a.reciprocal().reciprocal() == a
        b = _random_series(rng, order)
        assert mul(divide(b, a), a) == b
        assert divide(b, a) == mul(b, a.reciprocal())


def test_coefficients_stay_canonical():
    # Fraction keeps gcd(num, den) = 1 and den >= 1; spot-check through ops
    rng = random.Random(99)
    for _ in range(30):
        a = _random_series(rng, 5)
        b = poly([1, *_random_series(rng, 5).coefficients[1:]], 5)
        for c in add(b.reciprocal(), a).coefficients:
            assert c.denominator >= 1
            assert F(c.numerator, c.denominator) == c
