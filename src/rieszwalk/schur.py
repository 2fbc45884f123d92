"""Schur algorithm with exact precision accounting.

Converts a Caratheodory series F into its Schur function f, extracts
Verblunsky parameters one per step, and exposes the first-return amplitude
series.  ``renewal_first_return`` computes the same amplitudes from the
moments alone, without the Schur formula or the n-1 offset but with the
same series division; the CLI never calls it, and the tests, those of the
benchmark's output checks included, use it as an oracle.

The engine works over real rational data (conjugation is the identity);
complex coins are handled numerically elsewhere.  Each Schur step consumes
exactly one trustworthy series order, which the TruncatedSeries ledger
enforces: running out of orders raises instead of silently truncating.

The step-n first-return amplitude is the order n-1 Taylor coefficient of f.
That offset is not an assumption: the test suite asserts that the
renewal inversion of the moment sequence coincides with it order by order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .series import TruncatedSeries


class ParameterOutOfDisk(ValueError):
    """An extracted parameter has modulus >= 1.

    Signals a finitely supported measure or corrupted input; the iteration
    cannot continue either way.
    """


class PrecisionExhausted(ValueError):
    """The iterate has no trustworthy orders left for another step."""


class InsufficientPrecision(ValueError):
    """More series orders were requested than the input can vouch for."""


class FirstReturnSeries:
    """Amplitudes of first return in exactly n steps, n = 1, 2, ...

    ``amplitudes[i]`` is the step i+1 amplitude and ``cumulative[i]`` the
    sum of the squared amplitudes through step i+1.  Those partial sums must
    be bounded by one: their total is a return probability.  Both fields are
    set once, by the constructor, and cannot be reassigned.
    """

    __slots__ = ("amplitudes", "cumulative")

    def __init__(self, amplitudes: tuple[Fraction, ...]):
        cumulative = tuple(accumulate(a * a for a in amplitudes))
        # The partial sums never decrease, so the last one bounds them all.
        if cumulative and cumulative[-1] > 1:
            raise ValueError("cumulative return probability exceeds 1")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "cumulative", cumulative)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: FirstReturnSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: FirstReturnSeries is immutable")


def schur_from_caratheodory(F: TruncatedSeries) -> TruncatedSeries:
    """Schur function f = (F - 1) / (z (F + 1)); valid order drops by one."""
    if F.valid_order < 0 or F.coefficient(0) != 1:
        raise ValueError("Caratheodory series must have constant term 1")
    return F.add_constant(-1).shift_down() / F.add_constant(1)


def _fraction_free_start(F: TruncatedSeries, length: int) -> tuple[list[int], list[int]]:
    """Integer numerator/denominator polynomials of f through ``length`` orders.

    f = (F - 1) / (z (F + 1)), so p holds F_1..F_length and q holds
    F_0 + 1, F_1..F_(length-1), both scaled by one common denominator.
    """
    coefficients = [F.coefficient(k) for k in range(length + 1)]
    coefficients[0] += 1
    scale = math.lcm(*(c.denominator for c in coefficients))
    scaled = [c.numerator * (scale // c.denominator) for c in coefficients]
    return scaled[1:], scaled[:-1]


# extract_verblunsky divides the integer content out of its polynomials once
# per this many steps; between strips the entries grow by about the bit
# length of one alpha denominator per step.
_CONTENT_PERIOD = 16


def extract_verblunsky(F: TruncatedSeries, count: int) -> list[Fraction]:
    """First ``count`` Verblunsky parameters of the measure behind F, exactly.

    Equivalent to iterating the Schur step (strip the constant term,
    Moebius-shift, divide by z) on the series ``count`` times, but carries
    the iterate as a ratio p/q of two integer-coefficient polynomials: each
    step is then a linear combination plus a shift instead of a series
    division.  The step multiplies by alpha = n/d in lowest terms, so the
    common factor of p[0] and q[0] never enters the entries, and the content
    gcd(p, q) is divided out only on every ``_CONTENT_PERIOD``-th step.
    When n = +-1, as in most of the Riesz measure's steps, the update adds
    or subtracts the other polynomial's entry instead of multiplying it by n.
    q[0] starts at twice the common denominator and stays positive, so
    ``|p[0]| < q[0]`` is the disk test.  The
    results do not depend on the content, since each alpha is a normalised
    Fraction.  ``tests/test_schur.py`` keeps the series stepper as an
    oracle and pins the two routes to bit-identical results.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if F.valid_order < count + 1:
        raise PrecisionExhausted(
            f"need valid_order >= {count + 1}, have {F.valid_order}"
        )
    if F.coefficient(0) != 1:
        raise ValueError("Caratheodory series must have constant term 1")
    # Step k reads p[0] and q[0] after k index drops: count orders suffice.
    p, q = _fraction_free_start(F, count)
    out: list[Fraction] = []
    for step in range(count):
        p0, q0 = p[0], q[0]
        if abs(p0) >= q0:
            raise ParameterOutOfDisk(f"|alpha_{step}| >= 1")
        alpha = Fraction(p0, q0)
        out.append(alpha)
        # With p0 = t*n, q0 = t*d and t = gcd(p0, q0) > 0, the update
        # f' = (1/z) (d p - n q) / (d q - n p) keeps q0 > 0: the new q0 is
        # t*(d*d - n*n) and |n| < d.  The numerator's constant term
        # t*(d*n - n*d) cancels exactly, so the shift is an index drop.
        n, d = alpha.numerator, alpha.denominator
        high, low = zip(p[1:], q[1:]), zip(p[:-1], q[:-1])
        if n == 1:
            p, q = [d * x - y for x, y in high], [d * y - x for x, y in low]
        elif n == -1:
            p, q = [d * x + y for x, y in high], [d * y + x for x, y in low]
        else:
            p, q = [d * x - n * y for x, y in high], [d * y - n * x for x, y in low]
        if step % _CONTENT_PERIOD == _CONTENT_PERIOD - 1:
            g = math.gcd(*p, *q)
            if g > 1:
                p = [v // g for v in p]
                q = [v // g for v in q]
    return out


def first_return_series(f: TruncatedSeries, max_n: int) -> FirstReturnSeries:
    """First-return amplitudes for steps 1..max_n read off the Schur function."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n - 1 > f.valid_order:
        raise InsufficientPrecision(
            f"step {max_n} needs order {max_n - 1}, valid through {f.valid_order}"
        )
    return FirstReturnSeries(tuple(f.coefficient(n - 1) for n in range(1, max_n + 1)))


def renewal_first_return(
    moments: Sequence[Fraction], max_n: int
) -> FirstReturnSeries:
    """First-return amplitudes from the moment sequence alone.

    With r(z) = sum_n moments[n] z^n the first-return generating series is
    1 - 1/r(z).  Its input is the moments alone, so it checks the Schur
    formula and the n-1 offset; it shares the series division, which the
    ``mul``/``reciprocal`` of ``tests/oracles.py`` and the F_p recursion of
    ``bench/checks.py`` check independently.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if len(moments) < max_n + 1:
        raise ValueError(f"need {max_n + 1} moments, got {len(moments)}")
    if Fraction(moments[0]) != 1:
        raise ValueError("zeroth moment must be 1")
    r = TruncatedSeries(moments[: max_n + 1], max_n)
    inverse = TruncatedSeries([1], max_n) / r
    # 1 - 1/r(z) has constant term 0 and the negated coefficients of 1/r above it.
    return FirstReturnSeries(tuple(-c for c in inverse.coefficients[1:]))


def cumulative_return_probability(a: FirstReturnSeries) -> tuple[Fraction, ...]:
    """Partial sums of squared first-return amplitudes; monotone and <= 1."""
    return a.cumulative
