"""Independent computations the tests compare the package against.

None of these run in the ``rieszwalk`` command or the benchmark; each one
exists to check a production route by a second, unrelated one:

* ``alpha_from_offsets``: the paper's anchor-plus-offset recipe for the
  non-zero Verblunsky parameters, against ``ansatz.alpha``;
* ``traditional_walk_test``: the paper's ``F(-z) F(z) = 1`` test for walks
  without self-transitions;
* ``mul`` and ``reciprocal``: the term-by-term Fraction product and
  reciprocal, against the quotient ``TruncatedSeries.__truediv__``;
* ``add``, ``scale`` and ``substitute_quartic``: series operations the
  exact layer does not need, built through the ``TruncatedSeries``
  constructor so that the valid-order ledger still applies;
* ``dense``: the full matrix of a ``BandedUnitary``, from its non-zero
  entries;
* ``cmv_from_theta``: the CMV matrix as the product L M of 2x2 blocks,
  against ``cmv.build_cmv``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from rieszwalk.ansatz import backbone
from rieszwalk.cmv import BandedUnitary
from rieszwalk.series import CoefficientLike, TruncatedSeries


# -- exact series ---------------------------------------------------------------


def mul(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product through the common valid order, one Fraction op per term."""
    order = min(x.valid_order, y.valid_order)
    a, b = x.coefficients, y.coefficients
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(order + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeries(out, order)


def reciprocal(x: TruncatedSeries) -> TruncatedSeries:
    """Reciprocal by the long-division recursion; the constant term is non-zero."""
    a = x.coefficients
    inv0 = 1 / a[0]
    out = [inv0]
    for n in range(1, x.valid_order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            ai = a[i]
            if ai:
                acc += ai * out[n - i]
        out.append(-inv0 * acc)
    return TruncatedSeries(out, x.valid_order)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Sum through the common valid order (the min rule)."""
    order = min(a.valid_order, b.valid_order)
    x, y = a.coefficients, b.coefficients
    return TruncatedSeries([x[k] + y[k] for k in range(order + 1)], order)


def scale(a: TruncatedSeries, factor: CoefficientLike) -> TruncatedSeries:
    """``factor`` times ``a``; the valid order is unchanged."""
    f = Fraction(factor)
    return TruncatedSeries([f * c for c in a.coefficients], a.valid_order)


def substitute_quartic(a: TruncatedSeries) -> TruncatedSeries:
    """Substitute z**4 for z.

    The gaps between surviving coefficients are exact zeros, so the output is
    trustworthy through 4 * valid_order + 3.
    """
    order = 4 * a.valid_order + 3
    out = [Fraction(0)] * (order + 1)
    for k, c in enumerate(a.coefficients):
        out[4 * k] = c
    return TruncatedSeries(out, order)


# -- the offset recipe ------------------------------------------------------------


class OutOfDomain(ValueError):
    """The offset recipe does not cover this index."""


OFFSET_NUMERATORS = {3: 1, 7: -1, 11: -3, 15: -1, 19: 1, 23: -1}
OFFSET_SHIFTS = {3: 1, 7: 2, 11: -1, 15: -4, 19: -3, 23: -2}


def alpha_from_offsets(j: int) -> Fraction:
    """Non-zero parameter at index j from the anchor-plus-offset recipe.

    Covers j >= 15 with j = 3 mod 4 only; the first three non-zero
    parameters predate the first anchor and come from the closed form.
    """
    if j < 15 or j % 4 != 3:
        raise OutOfDomain(f"offset recipe covers j >= 15 with j = 3 mod 4, not {j}")
    p = (j + 17) // 32
    off = j - 16 * (2 * p - 1)
    a_p = backbone(p)
    if off == -1:
        return Fraction(-1, a_p)
    if off == 31:
        return Fraction(-1, backbone(p + 1))
    if off == 27:
        a_next = backbone(p + 1)
        return Fraction(a_next - a_p + 2, a_next + a_p - 2)
    if off == 11:
        return Fraction(-3, a_p - 1)
    return Fraction(OFFSET_NUMERATORS[off], a_p + OFFSET_SHIFTS[off])


# -- walks ------------------------------------------------------------------------


def traditional_walk_test(F_coeffs: Sequence, tol: float = 1e-10) -> bool:
    """Whether F(-z) F(z) = 1 holds through the supplied orders.

    This characterizes walks without self-transitions (even Schur function,
    vanishing odd-index Verblunsky coefficients).  Exact rational input is
    compared exactly; floating input within ``tol``.
    """
    coeffs = list(F_coeffs)
    if not coeffs:
        raise ValueError("need at least the constant coefficient")
    n = len(coeffs)
    if all(isinstance(c, (Fraction, int)) for c in coeffs):
        F = TruncatedSeries(coeffs, n - 1)
        F_minus = TruncatedSeries([(-1) ** i * c for i, c in enumerate(coeffs)], n - 1)
        return mul(F_minus, F) == TruncatedSeries([1], n - 1)
    c = np.asarray(coeffs, dtype=complex)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    prod = np.convolve(signs * c, c)[:n]
    prod[0] -= 1.0
    return bool(np.max(np.abs(prod)) <= tol)


def dense(M: BandedUnitary) -> np.ndarray:
    """The full dimension x dimension matrix; rows are source states."""
    out = np.zeros((M.dimension, M.dimension), dtype=complex)
    for r, c, v in M.nonzero_entries():
        out[r, c] = v
    return out


def cmv_from_theta(alphas: Sequence[complex], dim: int) -> np.ndarray:
    """Leading dim x dim block of the CMV matrix C = L M, built densely.

    With Theta_j = [[conj(alpha_j), rho_j], [rho_j, -alpha_j]], L is
    Theta_0 + Theta_2 + ... and M is 1 + Theta_1 + Theta_3 + ... (direct
    sums), both of size dim + 2 from alphas[:dim + 2] (Simon, OPUC, 4.2).
    Blocks cut by the edge keep their leading rows and columns; the cut
    block does not reach the leading dim x dim corner.
    """
    n = dim + 2
    a = np.asarray(alphas[:n], dtype=complex)
    rho = np.sqrt(1 - np.abs(a) ** 2)
    L = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    M[0, 0] = 1
    for j in range(n):
        block = np.array([[np.conj(a[j]), rho[j]], [rho[j], -a[j]]])
        size = min(2, n - j)
        target = L if j % 2 == 0 else M
        target[j : j + size, j : j + size] = block[:size, :size]
    return (L @ M)[:dim, :dim]
