"""Schur algorithm with exact precision accounting.

Converts a Caratheodory series F into its Schur function f, extracts
Verblunsky parameters one per step, and exposes the first-return amplitude
series.  ``renewal_first_return`` computes the same amplitudes from the
moments alone; the CLI never calls it, but the tests, those of the
benchmark's output checks included, use it as the independent oracle.

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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class FirstReturnSeries:
    """Amplitudes of first return in exactly n steps, n = 1, 2, ...

    ``amplitudes[i]`` is the step i+1 amplitude and ``cumulative[i]`` the
    sum of the squared amplitudes through step i+1.  Those partial sums must
    be bounded by one: their total is a return probability.
    """

    amplitudes: tuple[Fraction, ...]
    cumulative: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cumulative = tuple(accumulate(a * a for a in self.amplitudes))
        # The partial sums never decrease, so the last one bounds them all.
        if cumulative and cumulative[-1] > 1:
            raise ValueError("cumulative return probability exceeds 1")
        object.__setattr__(self, "cumulative", cumulative)


def schur_from_caratheodory(F: TruncatedSeries) -> TruncatedSeries:
    """Schur function f = (F - 1) / (z (F + 1)); valid order drops by one."""
    if F.valid_order < 0 or F.coefficient(0) != 1:
        raise ValueError("Caratheodory series must have constant term 1")
    return F.add_constant(-1).shift_down() / F.add_constant(1)


def _fraction_free_start(F: TruncatedSeries, length: int) -> tuple[list[int], list[int]]:
    """Integer numerator/denominator polynomials of f through ``length`` orders."""
    p_frac = [F.coefficient(k) for k in range(1, length + 1)]
    q_frac = [F.coefficient(k) for k in range(length)]
    q_frac[0] += 1
    scale = math.lcm(*(c.denominator for c in p_frac + q_frac))
    p = [int(c * scale) for c in p_frac]
    q = [int(c * scale) for c in q_frac]
    return p, q


def extract_verblunsky(F: TruncatedSeries, count: int) -> list[Fraction]:
    """First ``count`` Verblunsky parameters of the measure behind F, exactly.

    Equivalent to iterating the Schur step (strip the constant term,
    Moebius-shift, divide by z) on the series ``count`` times, but carries
    the iterate as a ratio of two integer-coefficient polynomials: each step
    is then a linear combination plus a shift instead of a series
    division.  ``tests/test_schur.py`` keeps the series stepper as an
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
    p, q = _fraction_free_start(F, F.valid_order)
    out: list[Fraction] = []
    for step in range(count):
        p0, q0 = p[0], q[0]
        if abs(p0) >= q0:
            raise ParameterOutOfDisk(f"|alpha_{step}| >= 1")
        out.append(Fraction(p0, q0))
        m = len(p)
        # f' = (1/z) (q0 p - p0 q) / (q0 q - p0 p); the numerator's constant
        # term cancels exactly, so the shift is an index drop.
        new_p = [q0 * p[i] - p0 * q[i] for i in range(1, m)]
        new_q = [q0 * q[i] - p0 * p[i] for i in range(m - 1)]
        g = 0
        for v in new_p:
            g = math.gcd(g, v)
        for v in new_q:
            g = math.gcd(g, v)
        if g > 1:
            new_p = [v // g for v in new_p]
            new_q = [v // g for v in new_q]
        p, q = new_p, new_q
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
    1 - 1/r(z); this uses nothing but the moments, making it an independent
    check on the Schur-function route.
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
