"""Truncated formal power series over exact rationals.

Every series carries an explicit ``valid_order``: the highest order whose
coefficient is trustworthy.  Operations never read a coefficient beyond the
valid order of their inputs, and the ledger has one rule: a quotient is
trusted through the lower of its inputs' valid orders.
This explicit ledger exists because the Verblunsky extraction loop loses
exactly one trustworthy order per step, and silently reading past the valid
order is the main correctness hazard of the whole computation.

Coefficients are ``fractions.Fraction`` throughout; arithmetic is exact.
Division scales its inputs once to integers and stays in integers until it
reduces each quotient coefficient, once, to a ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

CoefficientLike = Union[Fraction, int]


class TruncatedSeries:
    """Dense power series with coefficients trusted through ``valid_order``.

    ``valid_order`` is read off the stored coefficient list, one less than
    its length, so the two cannot disagree; ``valid_order == -1`` means no
    coefficient is trustworthy.  Instances are immutable: all operations
    return new series.
    """

    __slots__ = ("_coeffs",)

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

    @property
    def valid_order(self) -> int:
        return len(self._coeffs) - 1

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
        """Quotient through the common valid order, by a fraction-free recurrence.

        With a and b scaled once to integer lists A = a l_A and B = b l_B
        (l_A, l_B the lcm of their denominators), the integers
        H_n = B_0^n A_n - sum_(i>=1) B_i B_0^(i-1) H_(n-i) satisfy
        H_n = B_0^(n+1) (A/B)_n, so the quotient's order-n coefficient is
        H_n l_B / (B_0^(n+1) l_A), reduced once.  H_n reads a and b only up to
        order n, so every output order is as trustworthy as both inputs.
        Each multiplier B_i B_0^(i-1) is kept as ``odd << e``, so a power of
        two in it costs a shift.

        The integers grow like (B_0 l_B)^n.  That suits divisors whose scaled
        constant term is a power of two, like the integer start of a Riesz
        Caratheodory series or a moment series with dyadic denominators, but
        not general rationals, whose denominators keep growing through a
        chain of divisions.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.valid_order < 0 or not other._coeffs[0]:
            raise ValueError("divisor has no invertible constant term")
        order = min(self.valid_order, other.valid_order)
        a, b = self._coeffs[: order + 1], other._coeffs[: order + 1]
        l_a = math.lcm(*(c.denominator for c in a))
        l_b = math.lcm(*(c.denominator for c in b))
        A = [c.numerator * (l_a // c.denominator) for c in a]
        B = [c.numerator * (l_b // c.denominator) for c in b]
        terms = []  # (i, odd, e) with odd << e == B_i B_0^(i-1), for B_i != 0
        power = 1
        for i, c in enumerate(B[1:], 1):
            if c:
                c *= power
                e = (c & -c).bit_length() - 1
                terms.append((i, c >> e, e))
            power *= B[0]
        out, h = [], []
        power = 1
        for n, c in enumerate(A):
            total = c * power
            for i, odd, e in terms:
                if i > n:
                    break
                total -= odd * h[n - i] << e
            h.append(total)
            power *= B[0]
            out.append(Fraction(total * l_b, power * l_a))
        return TruncatedSeries(out, order)
