"""Exact moments of the Riesz measure and its Caratheodory series.

Every exact quantity is computed for NU, Riesz's own measure: the weak limit
of the densities prod_(k>=0) (1 + cos(4^k theta)) on the unit circle.  The
walk's measure MU starts the product at k = 1, so MU(theta) = NU(4 theta),
and each MU quantity is an NU one re-indexed by z -> z^4: moments j -> 4j,
Verblunsky parameters j -> 4j + 3, first returns n -> 4n; the rest vanish.

An NU moment is nonzero exactly when the index can be written as a signed sum
of distinct powers of 4, in which case it equals 1/2^(number of powers).  The
digit extraction below is the executable form of that (unique) expansion.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional

from .series import TruncatedSeries


class MeasureVariant(enum.Enum):
    """MU: product from k=1 (sparse moments); NU: product from k=0."""

    MU = "mu"
    NU = "nu"


# (exponent, sign) pairs, exponents strictly decreasing.
SignedQuarticExpansion = tuple[tuple[int, int], ...]


def signed_quartic_digits(j: int) -> Optional[SignedQuarticExpansion]:
    """Expand j as +-4^k1 +- ... +- 4^kp with k1 > ... > kp >= 0, or None.

    Returns None when no such expansion exists (the common case), which is a
    normal outcome and not an error: it encodes a vanishing NU moment.
    """
    if j == 0:
        raise ValueError("j = 0 has no expansion; handle the zeroth moment directly")
    flip = -1 if j < 0 else 1
    m = abs(j)
    digits = []
    level = 0
    while m:
        r = m % 4
        if r == 0:
            m //= 4
        elif r == 1:
            digits.append((level, flip))
            m = (m - 1) // 4
        elif r == 3:
            digits.append((level, -flip))
            m = (m + 1) // 4
        else:  # r == 2: no balanced digit can absorb it
            return None
        level += 1
    digits.reverse()
    return tuple(digits)


def moment(j: int, variant: MeasureVariant = MeasureVariant.MU) -> Fraction:
    """Exact moment of the chosen measure variant; moment(-j) == moment(j)."""
    if variant is MeasureVariant.MU:
        if j % 4:
            return Fraction(0)
        j //= 4
    if j == 0:
        return Fraction(1)
    digits = signed_quartic_digits(j)
    if digits is None:
        return Fraction(0)
    return Fraction(1, 2 ** len(digits))


def caratheodory_series(
    max_order: int, variant: MeasureVariant = MeasureVariant.MU
) -> TruncatedSeries:
    """Caratheodory function 1 + 2*sum_j moment(j) z^j through max_order.

    All moments are real, so no conjugation enters.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    coeffs = [Fraction(1)]
    coeffs.extend(2 * moment(j, variant) for j in range(1, max_order + 1))
    return TruncatedSeries(coeffs, max_order)
