"""Truncated formal power series over exact rationals.

Every series carries an explicit ``valid_order``: the highest order whose
coefficient is trustworthy.  Operations never read a coefficient beyond the
valid order of their inputs, and the ledger has one rule: a quotient is
trusted through the lower of its inputs' valid orders.
This explicit ledger exists because the Verblunsky extraction loop loses
exactly one trustworthy order per step, and silently reading past the valid
order is the main correctness hazard of the whole computation.

Coefficients are ``fractions.Fraction`` throughout; arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

CoefficientLike = Union[Fraction, int]


class ZeroConstantTerm(ValueError):
    """Division by a series whose constant term is zero or untrusted."""


def _nonzero_terms(coeffs: Sequence[Fraction]) -> list[tuple[int, int, int]]:
    """(order, numerator, denominator) of each non-zero coefficient, by order."""
    return [(i, c.numerator, c.denominator) for i, c in enumerate(coeffs) if c]


def _convolve_at(
    terms: list[tuple[int, int, int]], nums: Sequence[int], dens: Sequence[int], n: int
) -> tuple[int, int]:
    """The sum of a_i b_(n-i) as an unreduced integer pair (numerator, denominator).

    ``terms`` lists the non-zero a_i by increasing i (see ``_nonzero_terms``);
    those with i > n do not enter.  b_k is ``nums[k] / dens[k]``.  The products stay
    integer pairs and are summed over their least common denominator, so the
    caller can normalize once per coefficient instead of twice per term.
    """
    ps, qs = [], []
    for i, p, q in terms:
        if i > n:
            break
        b = nums[n - i]
        if b:
            ps.append(p * b)
            qs.append(q * dens[n - i])
    if not ps:
        return 0, 1
    lcm = math.lcm(*qs)
    return sum(p * (lcm // q) for p, q in zip(ps, qs)), lcm


class TruncatedSeries:
    """Dense power series with coefficients trusted through ``valid_order``.

    The stored coefficient list always has length ``valid_order + 1``;
    ``valid_order == -1`` means no coefficient is trustworthy.  Instances are
    immutable: all operations return new series.
    """

    __slots__ = ("_coeffs", "valid_order")

    def __init__(self, coefficients: Iterable[CoefficientLike], valid_order: int):
        if valid_order < -1:
            raise ValueError("valid_order must be >= -1")
        coeffs = [Fraction(c) for c in coefficients]
        n = valid_order + 1
        if len(coeffs) < n:
            # Missing trailing coefficients are exact zeros (polynomial input).
            coeffs.extend([Fraction(0)] * (n - len(coeffs)))
        else:
            del coeffs[n:]
        self._coeffs = tuple(coeffs)
        self.valid_order = valid_order

    @property
    def coefficients(self) -> Sequence[Fraction]:
        return self._coeffs

    def coefficient(self, order: int) -> Fraction:
        """Coefficient of z**order; refuses to read beyond the valid order."""
        if order < 0:
            raise IndexError("negative order")
        if order > self.valid_order:
            raise IndexError(
                f"order {order} beyond valid_order {self.valid_order}"
            )
        return self._coeffs[order]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.valid_order == other.valid_order and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if len(self._coeffs) > 6 else ""
        return f"TruncatedSeries([{head}{tail}], valid_order={self.valid_order})"

    # -- ring operations ----------------------------------------------------

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient through the common valid order, by long division.

        h_n = (a_n - sum_(i>=1) b_i h_(n-i)) / b_0 reads a and b only up to
        order n, so every output order is as trustworthy as both inputs.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.valid_order < 0 or not other._coeffs[0]:
            raise ZeroConstantTerm("divisor has no invertible constant term")
        b0 = other._coeffs[0]
        terms = _nonzero_terms(other._coeffs)[1:]
        order = min(self.valid_order, other.valid_order)
        out, nums, dens = [], [], []
        for n, a in enumerate(self._coeffs[: order + 1]):
            total, lcm = _convolve_at(terms, nums, dens, n)
            num = (a.numerator * lcm - a.denominator * total) * b0.denominator
            c = Fraction(num, a.denominator * lcm * b0.numerator)
            out.append(c)
            nums.append(c.numerator)
            dens.append(c.denominator)
        return TruncatedSeries(out, order)
