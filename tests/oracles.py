"""Independent computations the tests compare the package against.

None of these run in the ``rieszwalk`` command or the benchmark; each one
exists to check a production route by a second, unrelated one:

* ``progression_contains``: membership in the paper's j-th arithmetic
  progression, from its definition, against the 2-adic valuation that
  ``ansatz.backbone`` sums over;
* ``alpha_from_offsets``: the paper's anchor-plus-offset recipe for the
  non-zero Verblunsky parameters, against ``ansatz.alpha``;
* ``traditional_walk_test``: the paper's ``F(-z) F(z) = 1`` test for walks
  without self-transitions;
* ``mul`` and ``reciprocal``: the term-by-term Fraction product and
  reciprocal, against the quotient ``TruncatedSeries.__truediv__``;
* ``divide``: the quotient by long division over each order's least common
  denominator, against the fraction-free ``TruncatedSeries.__truediv__``;
  unlike that one it stays fast on a chain of divisions by general
  rationals, so the tests' Schur stepper divides with it;
* ``mu_signed_quartic_digits``: the signed base-4 digit rule of the sparse
  measure MU (every exponent >= 1), against ``riesz.moment`` on MU, which
  reaches MU only by re-indexing NU;
* ``add``, ``scale`` and ``substitute_quartic``: series operations the
  exact layer does not need, built through the ``TruncatedSeries``
  constructor so that the valid-order ledger still applies;
* ``dense``: the full matrix of a ``BandedUnitary``, from its non-zero
  entries;
* ``from_entries``: a ``BandedUnitary`` placed one (row, col, value) triple
  at a time, the inverse of ``BandedUnitary.nonzero_entries``;
* ``residue_rows``: each band's first and last non-zero row of each residue
  mod ``PERIOD``, read back from the singleton plans of
  ``BandedUnitary.plan``, so tests can pin an operator's zero pattern;
* ``disk_point_by_fraction``, ``build_cmv_by_entry``,
  ``coined_walk_matrix_by_entry`` and ``apply_full_length``: the earlier
  ``cmv`` and ``walk`` routines (Fraction complement, one entry at a time
  through ``from_entries``, every band over the full dimension), against
  which the production ones are held bit for bit;
* ``flush_front``: the rule ``walk.trajectory`` applies after each step,
  stated over the whole array, so that ``apply_full_length`` followed by it
  is the oracle for a step of the walk;
* ``cmv_from_theta``: the CMV matrix as the product L M of 2x2 blocks,
  against ``cmv.build_cmv``;
* ``spectral_moments``: the return amplitudes (M^n)[0, 0], stepped on the
  light cone, against the exact moments;
* ``first_return_full_length`` and ``first_return_by_renewal``: the walk
  killed at the origin stepped over the full dimension (with
  ``flush_front`` after each step), and the renewal
  recursion over ``spectral_moments``, against ``walk.first_return_numeric``;
* ``hadamard_first_return``: the Hadamard walk's first-return amplitudes in
  closed form, against ``walk.first_return_numeric`` on both Hadamard
  operators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from rieszwalk.ansatz import backbone
from rieszwalk.cmv import (
    ALL_RESIDUES,
    PERIOD,
    AlphaLike,
    BandedUnitary,
    Entry,
    apply_on_residues,
)
from rieszwalk.series import CoefficientLike, TruncatedSeries
from rieszwalk.walk import CoinMatrix


# -- exact moments and series ---------------------------------------------------


def mu_signed_quartic_digits(j: int) -> Optional[tuple[tuple[int, int], ...]]:
    """Expand j as +-4^k1 +- ... +- 4^kp with k1 > ... > kp >= 1, or None.

    The digit rule the package once kept for the sparse measure MU: the
    balanced base-4 digits of j, rejected when the lowest one sits at
    exponent 0.
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
    if digits and digits[0][0] == 0:
        return None
    digits.reverse()
    return tuple(digits)


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


def divide(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """Quotient through the common valid order, by long division.

    h_n = (a_n - sum_(i>=1) b_i h_(n-i)) / b_0, each order summed over the
    lcm of its terms' denominators and reduced to lowest terms before the
    next order reads it.
    """
    if y.valid_order < 0 or not y.coefficients[0]:
        raise ValueError("divisor has no invertible constant term")
    b0 = y.coefficients[0]
    terms = _nonzero_terms(y.coefficients)[1:]
    order = min(x.valid_order, y.valid_order)
    out, nums, dens = [], [], []
    for n, a in enumerate(x.coefficients[: order + 1]):
        total, lcm = _convolve_at(terms, nums, dens, n)
        num = (a.numerator * lcm - a.denominator * total) * b0.denominator
        c = Fraction(num, a.denominator * lcm * b0.numerator)
        out.append(c)
        nums.append(c.numerator)
        dens.append(c.denominator)
    return TruncatedSeries(out, order)


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


# -- the backbone's progressions --------------------------------------------------


def progression_contains(j: int, t: int) -> bool:
    """Membership in the j-th progression: t = ((-2)^j - 1)/3 + k 2^(j+1)."""
    return (t - ((-2) ** j - 1) // 3) % 2 ** (j + 1) == 0


# -- the offset recipe ------------------------------------------------------------


OFFSET_NUMERATORS = {3: 1, 7: -1, 11: -3, 15: -1, 19: 1, 23: -1}
OFFSET_SHIFTS = {3: 1, 7: 2, 11: -1, 15: -4, 19: -3, 23: -2}


def alpha_from_offsets(j: int) -> Fraction:
    """Non-zero parameter at index j from the anchor-plus-offset recipe.

    Covers j >= 15 with j = 3 mod 4 only; the first three non-zero
    parameters predate the first anchor and come from the closed form.
    """
    if j < 15 or j % 4 != 3:
        raise ValueError(f"offset recipe covers j >= 15 with j = 3 mod 4, not {j}")
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


def from_entries(dim: int, entries: Iterable[Entry]) -> BandedUnitary:
    """Inverse of ``nonzero_entries``; drops in-band triples outside the matrix."""
    bands = np.zeros((5, dim), dtype=complex)
    for row, col, value in entries:
        if 0 <= row < dim and 0 <= col < dim:
            bands[col - row + 2, row] = value
    return BandedUnitary(bands)


def residue_rows(M: BandedUnitary) -> tuple:
    """``(o, ((t, first, last), ...))`` for each band o with a non-zero entry.

    Offsets ascend, t runs over the residues mod ``PERIOD`` of the band's
    non-zero rows, and first and last are its first and last such row: the
    plan for the residue t alone slices each band from the one to past the
    other.
    """
    rows: dict[int, list] = {}
    for t in range(PERIOD):
        for o, start, stop, _ in M.plan(1 << t)[1]:
            rows.setdefault(o, []).append((t, start, stop - 1))
    return tuple((o, tuple(rows[o])) for o in sorted(rows))


def disk_point_by_fraction(value: AlphaLike) -> tuple[complex, float]:
    """``cmv.disk_point`` with the complement 1 - value^2 formed as a Fraction."""
    if isinstance(value, (Fraction, int)):
        if abs(value) >= 1:
            raise ValueError(f"|{value}| >= 1")
        return complex(value), math.sqrt(1 - value * value)
    z = complex(value)
    mag2 = z.real * z.real + z.imag * z.imag
    # Written so that NaN, which compares False, is rejected too.
    if not (mag2 < 1.0):
        raise ValueError(f"{z} is not inside the unit disk")
    return z, math.sqrt(1.0 - mag2)


def build_cmv_by_entry(alphas: Sequence[AlphaLike], dim: int) -> BandedUnitary:
    """``cmv.build_cmv`` one entry at a time, conjugating with numpy scalars."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if len(alphas) < dim:
        raise ValueError(f"need at least {dim} coefficients, got {len(alphas)}")
    a, r = zip((-1.0 + 0j, 0.0), *map(disk_point_by_fraction, alphas[:dim]), (0j, 1.0))

    def entries() -> Iterator[Entry]:
        for row in range(dim):
            k = 2 * (row // 2)
            if row % 2 == 0:
                yield row, k - 1, r[k] * np.conj(a[k + 1])
                yield row, k, -a[k] * np.conj(a[k + 1])
                yield row, k + 1, r[k + 1] * np.conj(a[k + 2])
                yield row, k + 2, r[k + 1] * r[k + 2]
            else:
                yield row, k - 1, r[k] * r[k + 1]
                yield row, k, -a[k] * r[k + 1]
                yield row, k + 1, -a[k + 1] * np.conj(a[k + 2])
                yield row, k + 2, -a[k + 1] * r[k + 2]

    return from_entries(dim, entries())


def coined_walk_matrix_by_entry(
    coins: Union[CoinMatrix, Sequence[CoinMatrix]], dim: int
) -> BandedUnitary:
    """``walk.coined_walk_matrix`` one (row, col, value) triple at a time."""
    if dim < 4:
        raise ValueError("dim must be >= 4")
    sites = (dim + 1) // 2
    if isinstance(coins, CoinMatrix):
        per_site = [coins] * sites
    else:
        per_site = list(coins[:sites])
        if len(per_site) < sites:
            raise ValueError(f"need at least {sites} coins, got {len(per_site)}")

    def entries():
        for i, c in enumerate(per_site):
            left = 2 * i - 1 if i >= 1 else 0
            yield 2 * i, left, c.c21
            yield 2 * i, 2 * i + 2, c.c11
            yield 2 * i + 1, left, c.c22
            yield 2 * i + 1, 2 * i + 2, c.c12

    return from_entries(dim, entries())


def apply_full_length(state: Sequence[complex], M: BandedUnitary) -> np.ndarray:
    """``cmv.apply_on_residues`` with every band applied over the full dimension."""
    v = np.asarray(state, dtype=complex)
    n = M.dimension
    if v.shape != (n,):
        raise ValueError(f"state has shape {v.shape}, operator dimension {n}")
    out = np.zeros(n, dtype=complex)
    for o in range(-2, 3):
        band = M.bands[o + 2]
        if o >= 0:
            out[o:] += v[: n - o] * band[: n - o]
        else:
            out[: n + o] += v[-o:] * band[-o:]
    return out


def flush_front(state: np.ndarray) -> np.ndarray:
    """A copy of ``state`` in which the trailing run of entries whose real
    and imaginary parts both lie below the smallest normal float is
    multiplied by 0.0.

    The run ends at the array's last entry and takes in exact zeros, so it
    starts after the last entry with a part of modulus at least
    ``np.finfo(float).tiny`` (or a NaN part); no entry before it changes.
    """
    tiny = np.finfo(float).tiny
    small = (np.abs(state.real) < tiny) & (np.abs(state.imag) < tiny)
    kept = np.flatnonzero(~small)
    out = state.copy()
    out[kept[-1] + 1 if kept.size else 0 :] *= 0.0
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


def spectral_moments(M: BandedUnitary, n: int) -> np.ndarray:
    """Entries (0, 0) of M^0 .. M^n, exact for the truncation by finite propagation."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if M.dimension < 2 * n + 3:
        raise ValueError(
            f"moments through {n} need dimension >= {2 * n + 3}, have {M.dimension}"
        )
    v = np.zeros(M.dimension, dtype=complex)
    v[0] = 1.0
    moments = [v[0]]
    for step in range(1, n + 1):
        # The support grows by at most two indices per step.
        v = apply_on_residues(v, M, 2 * step - 1, ALL_RESIDUES)[0]
        moments.append(v[0])
    return np.array(moments)


def first_return_full_length(M: BandedUnitary, max_n: int) -> np.ndarray:
    """``walk.first_return_numeric`` with every step over the full dimension."""
    v = np.zeros(M.dimension, dtype=complex)
    v[0] = 1.0
    a = np.zeros(max_n, dtype=complex)
    for n in range(max_n):
        v = flush_front(apply_full_length(v, M))
        a[n] = v[0]
        v[0] = 0
    return a


def first_return_by_renewal(M: BandedUnitary, max_n: int) -> np.ndarray:
    """First returns by the renewal recursion a_n = r_n - sum_k a_k r_(n-k).

    The plain return amplitudes r_n come from ``spectral_moments``; the
    recursion runs on numpy scalars.
    """
    r = spectral_moments(M, max_n)
    a = np.zeros(max_n + 1, dtype=complex)
    for n in range(1, max_n + 1):
        acc = r[n]
        for k in range(1, n):
            acc -= a[k] * r[n - k]
        a[n] = acc
    return a[1:]


def hadamard_first_return(max_n: int) -> np.ndarray:
    """First-return amplitudes a_1..a_max_n of the Hadamard walk, in closed form.

    a_1 = 1/sqrt(2) and a_(4k-1) = (-1)^(k+1) c_k / sqrt(2), where
    c_k = -C(2k, k) / ((2k - 1) 4^k) (k >= 1) are the Taylor coefficients
    of sqrt(1 - x); every other a_n is 0.  The generating function is
    sum a_n z^n = (z + (1 - sqrt(1 + z^4)) / z) / sqrt(2).  Each |c_k| is
    one correctly rounded integer division.  Entry [n - 1] is a_n.
    """
    a = np.zeros(max_n)
    if max_n:
        a[0] = 1 / math.sqrt(2)
    for k in range(1, (max_n + 1) // 4 + 1):
        c = -(math.comb(2 * k, k) / ((2 * k - 1) * 4**k))
        a[4 * k - 2] = (-1) ** (k + 1) * c / math.sqrt(2)
    return a
