from fractions import Fraction as F

import pytest

from oracles import signed_quartic_digits
from rieszwalk.riesz import MeasureVariant, caratheodory_series, moment

MU, NU = MeasureVariant.MU, MeasureVariant.NU


def moment_of(expansion) -> F:
    """The moment whose index has this signed base-4 expansion (None: no expansion)."""
    return F(0) if expansion is None else F(1, 2 ** len(expansion))


def brute_force_expansions(j: int, min_exponent: int) -> list[tuple[tuple[int, int], ...]]:
    """All ways to write j as a signed sum of distinct powers of 4.

    Plain enumeration over sign choices; the independent oracle for the digit
    extraction.  Exponents run from min_exponent upward until a power alone
    exceeds any value reachable with the remaining budget.
    """
    k_max = min_exponent
    while 2 * 4**k_max <= 3 * abs(j) + 2:
        k_max += 1
    exponents = list(range(min_exponent, k_max + 1))

    found = []

    def walk(idx: int, remaining: int, chosen: list[tuple[int, int]]):
        if idx == len(exponents):
            if remaining == 0 and chosen:
                found.append(tuple(sorted(chosen, reverse=True)))
            return
        # Remaining exponents cannot bridge a gap bigger than their total.
        budget = sum(4**e for e in exponents[idx:])
        if abs(remaining) > budget:
            return
        walk(idx + 1, remaining, chosen)
        e = exponents[idx]
        walk(idx + 1, remaining - 4**e, chosen + [(e, 1)])
        walk(idx + 1, remaining + 4**e, chosen + [(e, -1)])

    walk(0, j, [])
    return found


@pytest.mark.parametrize(
    "j,variant,expected",
    [
        (4, MU, ((1, 1),)),
        (44, MU, ((3, 1), (2, -1), (1, -1))),
        (8, MU, None),
        (1, NU, ((0, 1),)),
        (3, NU, ((1, 1), (0, -1))),
        (2, NU, None),
    ],
)
def test_digit_examples(j, variant, expected):
    assert signed_quartic_digits(j, 1 if variant is MU else 0) == expected
    assert moment(j, variant) == moment_of(expected)


def test_digit_negative_flips_signs():
    for j in (44, 3):
        pos = signed_quartic_digits(j)
        neg = signed_quartic_digits(-j)
        assert neg == tuple((k, -s) for k, s in pos)


def test_digit_zero_rejected():
    with pytest.raises(ValueError, match="^j = 0 has no expansion"):
        signed_quartic_digits(0)


@pytest.mark.parametrize("variant,min_exp", [(MU, 1), (NU, 0)])
def test_digits_match_brute_force(variant, min_exp):
    for j in range(1, 801):
        expansions = brute_force_expansions(j, min_exp)
        assert len(expansions) <= 1, f"expansion of {j} is not unique"
        expected = expansions[0] if expansions else None
        assert signed_quartic_digits(j, min_exp) == expected
        assert moment(j, variant) == moment(-j, variant) == moment_of(expected), j


def test_digits_reconstruct():
    for j in range(1, 100_000):
        digits = signed_quartic_digits(j)
        if digits is None:
            assert moment(j, MU) == 0
            continue
        assert sum(s * 4**k for k, s in digits) == j
        exps = [k for k, _ in digits]
        assert exps == sorted(set(exps), reverse=True)
        assert min(exps) >= 0
        # MU keeps exactly the expansions that avoid 4^0, the multiples of 4.
        assert (min(exps) >= 1) == (j % 4 == 0)
        assert moment(j, MU) == (moment_of(digits) if j % 4 == 0 else 0)


@pytest.mark.parametrize(
    "j,variant,expected",
    [
        (0, MU, F(1)),
        (4, MU, F(1, 2)),
        (44, MU, F(1, 8)),
        (8, MU, F(0)),
        (12, MU, F(1, 4)),
        (0, NU, F(1)),
        (1, NU, F(1, 2)),
        (3, NU, F(1, 4)),
        (3, MU, F(0)),
    ],
)
def test_moment_examples(j, variant, expected):
    assert moment(j, variant) == expected


def test_moment_symmetry():
    for j in range(501):
        assert moment(j, MU) == moment(-j, MU)
        assert moment(j, NU) == moment(-j, NU)


def test_moment_variant_consistency():
    # The sparse variant is the dense one sampled on multiples of four.
    for j in range(501):
        assert moment(4 * j, MU) == moment(j, NU)
    for j in range(1, 501):
        if j % 4:
            assert moment(j, MU) == 0


def test_nonzero_moments_are_dyadic():
    for j in range(1, 2001):
        m = moment(j, MU)
        if m:
            assert m.numerator == 1
            assert m.denominator & (m.denominator - 1) == 0


def test_caratheodory_mu_order_20():
    series = caratheodory_series(20, MU)
    expected = {0: F(1), 4: F(1), 12: F(1, 2), 16: F(1), 20: F(1, 2)}
    for k in range(21):
        assert series.coefficient(k) == expected.get(k, F(0))
    assert series.valid_order == 20


def test_caratheodory_mu_z64():
    assert caratheodory_series(64, MU).coefficient(64) == 1


def test_caratheodory_nu_order_5():
    series = caratheodory_series(5, NU)
    assert list(series.coefficients) == [F(1), F(1), F(0), F(1, 2), F(1), F(1, 2)]


def test_caratheodory_rejects_negative_order():
    with pytest.raises(ValueError, match="^max_order must be >= 0$"):
        caratheodory_series(-1, MU)
