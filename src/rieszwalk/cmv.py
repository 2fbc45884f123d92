"""Finite CMV evolution operators built from Verblunsky coefficients.

A CMV operator is pentadiagonal: rows 0 and 1 are special, then the sparsity
pattern repeats in 2x4 blocks shifted right by two columns per block row.
The finite matrix here is the plain truncation of the infinite one, which
leaves every interior column orthonormal; only the last two columns feel the
cut.  Storage is by diagonals (offsets -2..+2).  Builders write whole
bands by slices, one for each parity of row, slots outside the matrix
included; only the ``BandedUnitary`` constructor knows those slots, and
zeroes them on its own copy.  A step is told how far the state reaches
(its support) and touches only those rows, so one application costs
O(support), plus the O(dimension) zero-filled output.

Zero entries come in patterns that repeat along the rows.  The Riesz
coefficients vanish off n = 3 (mod 4), and CMV rows come in pairs, so the
Riesz operator's zero pattern repeats every ``PERIOD`` = 8 rows; a
constant-coin walk's repeats every two.  A step is also told the residues
mod ``PERIOD`` at which the state can be non-zero.  It multiplies each band
once, over one strided slice that holds every non-zero row of the band
whose residue is in that set, and hands back the residues the next state
can reach.  The slices are read from the bands the first time a set of
residues is stepped.  Every product a step skips has a zero factor.

Transitions are read along rows: row r lists the amplitudes for one step out
of basis state r.  Applying the operator to a state vector therefore
contracts over the row index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence, Union

import numpy as np

AlphaLike = Union[Fraction, complex, float, int]
Entry = tuple[int, int, complex]  # (row, col, value)
Slice = tuple[int, int, int, int]  # (offset, start, stop, stride) of band rows

PERIOD = 8  # rows are classed by their residue mod PERIOD


def disk_point(value: AlphaLike) -> tuple[complex, float]:
    """A point of the open unit disk as (value, rho = sqrt(1 - |value|^2)).

    For exact rational input the complement 1 - value^2 is formed exactly and
    rounded to float once, so rho carries no avoidable rounding error.
    """
    if isinstance(value, (Fraction, int)):
        n, d = value.numerator, value.denominator
        if abs(n) >= d:
            raise ValueError(f"|{value}| >= 1")
        # Integer true division is correctly rounded, as Fraction -> float is.
        return complex(n / d), math.sqrt((d * d - n * n) / (d * d))
    z = complex(value)
    mag2 = z.real * z.real + z.imag * z.imag
    # Written so that NaN, which compares False, is rejected too.
    if not (mag2 < 1.0):
        raise ValueError(f"{z} is not inside the unit disk")
    return z, math.sqrt(1.0 - mag2)


class BandedUnitary:
    """Unitary with bandwidth 2, stored as five diagonals.

    ``bands[o + 2, r]`` holds the entry at (row r, column r + o).  The
    constructor owns the truncation: it copies the bands it is given, zeroes
    the slots whose column falls outside the matrix, and makes its copy
    read-only; the caller's array is left as it was.
    """

    __slots__ = ("bands", "dimension", "_plans")

    def __init__(self, bands: np.ndarray):
        bands = np.array(bands, dtype=complex)
        if bands.ndim != 2 or bands.shape[0] != 5:
            raise ValueError("bands must have shape (5, dimension)")
        # The (row, column) slots (0, -2), (1, -1), (0, -1), (n - 1, n),
        # (n - 2, n) and (n - 1, n + 1), in band order; slices allow n < 2.
        bands[0, :2] = bands[1, :1] = bands[3, -1:] = bands[4, -2:] = 0
        bands.flags.writeable = False
        self.bands = bands
        self.dimension = bands.shape[1]
        self._plans: dict[int, tuple[int, tuple[Slice, ...]]] = {}

    def plan(self, residues: int) -> tuple[int, tuple[Slice, ...]]:
        """How to step a state that is zero at every row whose residue is not in ``residues``.

        ``residues`` is a bit set over the residues mod ``PERIOD``.  Returns
        the bit set of the next state and, for each band that meets the
        state, the one slice of rows to multiply: it starts at the band's
        first and stops after its last non-zero row whose residue is in
        ``residues``, with the coarsest stride (a divisor of ``PERIOD``) that holds them all.
        Each of the at most 2 ** PERIOD plans is made once, from the bands,
        which are read-only.
        """
        plan = self._plans.get(residues)
        if plan is None:
            reached, slices = 0, []
            for o in range(-2, 3):
                hit = []  # (t, first, last) for each residue t in the set
                for t in range(PERIOD):
                    if residues >> t & 1:
                        k = np.flatnonzero(self.bands[o + 2, t::PERIOD])
                        if k.size:
                            hit.append((t, t + PERIOD * int(k[0]), t + PERIOD * int(k[-1])))
                if hit:
                    stride = math.gcd(PERIOD, *(t - hit[0][0] for t, _, _ in hit))
                    start = min(first for _, first, _ in hit)
                    slices.append((o, start, max(last for _, _, last in hit) + 1, stride))
                    for t, _, _ in hit:
                        reached |= 1 << (t + o) % PERIOD
            plan = self._plans[residues] = (reached, tuple(slices))
        return plan

    def nonzero_entries(self) -> Iterator[Entry]:
        """(row, col, value) for every non-zero entry, row-major, as Python scalars."""
        rows, t = np.nonzero(self.bands.T)  # row-major: by row, then offset
        return zip(rows.tolist(), (rows + t - 2).tolist(), self.bands.T[rows, t].tolist())


def build_cmv(alphas: Sequence[AlphaLike]) -> BandedUnitary:
    """Truncated CMV operator whose dimension is the number of Verblunsky coefficients."""
    dim = len(alphas)
    if dim < 2:
        raise ValueError("dim must be >= 2")
    # a[j + 1] and r[j + 1] hold alpha_j and its rho, so the block formula's
    # alpha_(k-1), alpha_k, alpha_(k+1) are a[k], a[k + 1], a[k + 2].  In front
    # sits the boundary: a fictitious coefficient -1 makes the first two rows
    # come out of the same block formula as the rest.  Past the cut alpha = 0,
    # rho = 1; every entry built from it falls outside the matrix and is
    # dropped by the constructor.
    a, r = zip((-1.0 + 0j, 0.0), *map(disk_point, alphas), (0j, 1.0))
    # Python complex products round as numpy's complex128 scalar ones do;
    # numpy's array loops need not, so each band row is built as a list.
    bands = np.zeros((5, dim), dtype=complex)
    even = range(0, dim, 2)  # row k
    bands[1, 0::2] = [r[k] * a[k + 1].conjugate() for k in even]
    bands[2, 0::2] = [-a[k] * a[k + 1].conjugate() for k in even]
    bands[3, 0::2] = [r[k + 1] * a[k + 2].conjugate() for k in even]
    bands[4, 0::2] = [r[k + 1] * r[k + 2] for k in even]
    odd = range(0, dim - 1, 2)  # row k + 1
    bands[0, 1::2] = [r[k] * r[k + 1] for k in odd]
    bands[1, 1::2] = [-a[k] * r[k + 1] for k in odd]
    bands[2, 1::2] = [-a[k + 1] * a[k + 2].conjugate() for k in odd]
    bands[3, 1::2] = [-a[k + 1] * r[k + 2] for k in odd]
    return BandedUnitary(bands)


def apply_on_residues(
    v: np.ndarray, M: BandedUnitary, support: int, residues: int
) -> tuple[np.ndarray, int]:
    """One step of the dynamics, out[c] = sum_r v[r] * M[r, c], and out's residues.

    ``v`` is a complex array of length ``M.dimension``; its length is not
    checked here (``walk.trajectory`` checks it once).  Two promises say
    where it is zero: at every index from ``support`` on, and at every index
    whose residue mod ``PERIOD`` is not in the bit set ``residues``;
    ``M.dimension`` and the full set ``(1 << PERIOD) - 1`` promise nothing.
    Only rows inside both are read, by ``M.plan(residues)``.  With finite entries
    the result is bit for bit the full sum: each skipped term is a zero
    product, the kept ones still add in ascending offset order, and adding a
    zero to an accumulator that starts at +0.0 changes nothing.  The output
    has full length; the returned bit set holds every residue at which it
    can be non-zero.
    """
    reached, slices = M.plan(residues)
    out = np.zeros(M.dimension, dtype=complex)
    for o, lo, hi, stride in slices:
        hi = min(hi, support)
        if lo < hi:
            out[lo + o : hi + o : stride] += v[lo:hi:stride] * M.bands[o + 2, lo:hi:stride]
    return out, reached


def unitarity_defect(M: BandedUnitary) -> float:
    """Worst orthonormality violation among interior column pairs.

    The last two columns are clipped by the truncation and excluded.  Columns
    further than 4 apart have disjoint support, so only nearby pairs are
    formed.
    """
    n = M.dimension
    if n < 5:
        raise ValueError("defect needs dimension >= 5")
    # colband[c, t] = entry at (row c - 2 + t, column c).  Rolling band o by
    # o wraps around only slots outside the matrix, which are zero.
    colband = np.stack([np.roll(M.bands[4 - t], 2 - t) for t in range(5)], axis=1)
    worst = 0.0
    for d in range(5):
        overlap = np.zeros(n - d, dtype=complex)
        for t in range(d, 5):
            overlap += np.conj(colband[: n - d, t]) * colband[d:, t - d]
        interior = overlap[: n - 2 - d]
        if d == 0:
            interior = interior - 1.0
        if interior.size:
            worst = max(worst, float(np.max(np.abs(interior))))
    return worst

