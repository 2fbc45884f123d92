"""Exact moments of the Riesz measure and its Caratheodory series.

Every exact quantity is computed for NU, Riesz's own measure: the weak limit
of the densities prod_(k>=0) (1 + cos(4^k theta)) on the unit circle.  The
walk's measure MU starts the product at k = 1, so MU(theta) = NU(4 theta),
and each MU quantity is an NU one re-indexed by z -> z^4: moments j -> 4j,
Verblunsky parameters j -> 4j + 3, first returns n -> 4n; the rest vanish.

An NU moment is nonzero exactly when the index can be written as a signed sum
of distinct powers of 4, in which case it equals 1/2^(number of powers).  Such
a sum is the balanced base-4 expansion of |j|, with digits -1, 0 and 1, so it
is unique when it exists.  ``moment`` reads those digits from the lowest up,
a digit 3 being -1 with a carry, counts the non-zero ones and returns 0 at the
first digit 2, which no balanced digit can absorb.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .series import TruncatedSeries


class MeasureVariant(enum.Enum):
    """MU: product from k=1 (sparse moments); NU: product from k=0."""

    MU = "mu"
    NU = "nu"


def moment(j: int, variant: MeasureVariant = MeasureVariant.MU) -> Fraction:
    """Exact moment of the chosen measure variant; moment(-j) == moment(j)."""
    if variant is MeasureVariant.MU:
        if j % 4:
            return Fraction(0)
        j //= 4
    m, powers = abs(j), 0
    while m:
        r = m % 4
        if r == 2:  # no balanced digit can absorb it
            return Fraction(0)
        if r:
            powers += 1
        m = (m + 1) // 4  # a digit 3 is -1 and carries one
    return Fraction(1, 2**powers)


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
    return TruncatedSeries(coeffs)
