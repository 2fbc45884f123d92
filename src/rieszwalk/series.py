"""Truncated formal power series over exact rationals.

A series holds only trustworthy coefficients, so its ``valid_order``, the
highest order whose coefficient is trusted, is read off their count.
Operations never read a coefficient beyond it, and the one operation,
``reciprocal``, is trusted through its input's valid order.  This ledger
exists because the Verblunsky extraction loop loses exactly one
trustworthy order per step, and silently reading past the valid order is
the main correctness hazard of the whole computation.  Coefficients are
``fractions.Fraction``; arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

CoefficientLike = Union[Fraction, int]


class TruncatedSeries:
    """Dense power series whose every stored coefficient is trusted.

    ``valid_order`` is one less than the number of coefficients, so the two
    cannot disagree; an empty series has ``valid_order == -1``: no
    coefficient is trustworthy.  Instances are immutable: all operations
    return new series.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[CoefficientLike]):
        self._coeffs = tuple(Fraction(c) for c in coefficients)

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
            raise IndexError(f"order {order} beyond valid_order {self.valid_order}")
        return self._coeffs[order]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if len(self._coeffs) > 6 else ""
        return f"TruncatedSeries([{head}{tail}])  # valid_order {self.valid_order}"

    def reciprocal(self) -> "TruncatedSeries":
        """1/R through R's valid order; R_0 must be 1.

        With c = (lcm of the odd parts of R's denominators d_i) << e, where
        e = max_i ceil(v_2(d_i) / i), each W_i = c^i R_i is an integer, and so
        are the coefficients of 1/R(cz): U_0 = 1, U_n = -sum_(i>=1) W_i U_(n-i).
        (1/R)_n = U_n / c^n, reduced once, reads R only up to order n.  Each
        W_i is kept as ``odd << s``, so a power of two in it costs a shift;
        for the Riesz moment series c = 2 and every odd part is 1.
        """
        r = self._coeffs
        if not r or r[0] != 1:
            raise ValueError("reciprocal needs constant term 1")
        dens = [x.denominator for x in r[1:]]
        odd = math.lcm(*(d >> _twos(d) for d in dens))
        e = max((-(-_twos(d) // i) for i, d in enumerate(dens, 1)), default=0)
        terms = []  # (i, odd, s) with odd << s == W_i, for R_i != 0
        for i, x in enumerate(r[1:], 1):
            if x:
                v = _twos(x.denominator)
                w = x.numerator * (odd**i // (x.denominator >> v))
                terms.append((i, w >> _twos(w), _twos(w) + e * i - v))
        c = odd << e
        out, u = [Fraction(1)], [1]
        for n in range(1, len(r)):
            total = 0
            for i, w, s in terms:
                if i > n:
                    break
                total -= w * u[n - i] << s
            u.append(total)
            out.append(Fraction(total, c**n))
        return TruncatedSeries(out)


def _twos(x: int) -> int:
    """The exponent of 2 in the non-zero integer x."""
    return (x & -x).bit_length() - 1
