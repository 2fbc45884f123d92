"""Finite CMV evolution operators built from Verblunsky coefficients.

A CMV operator is pentadiagonal: rows 0 and 1 are special, then the sparsity
pattern repeats in 2x4 blocks shifted right by two columns per block row.
The finite matrix here is the plain truncation of the infinite one, which
leaves every interior column orthonormal; only the last two columns feel the
cut.  Storage is by diagonals (offsets -2..+2), each with the span of rows
that holds its non-zero entries.  Builders write whole bands by slices,
one for each parity of row, slots outside the matrix included; only the
``BandedUnitary`` constructor knows those slots, and zeroes them on its own
copy.  A step is told how far the state reaches (its support) and touches
only those rows, so one application costs O(support), plus the O(dimension)
zero-filled output.

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


class CoefficientOutOfDisk(ValueError):
    """A Verblunsky coefficient must have modulus strictly below 1."""


class DimensionMismatch(ValueError):
    """State vector length does not match the operator dimension."""


class DimensionTooSmall(ValueError):
    """Truncation too small for the requested number of exact steps."""


def disk_point(value: AlphaLike) -> tuple[complex, float]:
    """A point of the open unit disk as (value, rho = sqrt(1 - |value|^2)).

    For exact rational input the complement 1 - value^2 is formed exactly and
    rounded to float once, so rho carries no avoidable rounding error.
    """
    if isinstance(value, (Fraction, int)):
        n, d = value.numerator, value.denominator
        if abs(n) >= d:
            raise CoefficientOutOfDisk(f"|{value}| >= 1")
        # Integer true division is correctly rounded, as Fraction -> float is.
        return complex(n / d), math.sqrt((d * d - n * n) / (d * d))
    z = complex(value)
    mag2 = z.real * z.real + z.imag * z.imag
    # Written so that NaN, which compares False, is rejected too.
    if not (mag2 < 1.0):
        raise CoefficientOutOfDisk(f"{z} is not inside the unit disk")
    return z, math.sqrt(1.0 - mag2)


class BandedUnitary:
    """Unitary with bandwidth 2, stored as five diagonals.

    ``bands[o + 2, r]`` holds the entry at (row r, column r + o).  The
    constructor owns the truncation: it copies the bands it is given, zeroes
    the slots whose column falls outside the matrix, and makes its copy
    read-only; the caller's array is left as it was.  ``spans`` lists
    ``(o, lo, hi)`` for each band with a non-zero entry, offsets ascending:
    rows lo..hi - 1 run from its first to its last non-zero entry.
    """

    __slots__ = ("bands", "dimension", "spans")

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
        spans = []
        for o in range(-2, 3):
            rows = np.flatnonzero(bands[o + 2])
            if rows.size:
                spans.append((o, int(rows[0]), int(rows[-1]) + 1))
        self.spans = tuple(spans)

    def nonzero_entries(self) -> Iterator[Entry]:
        """(row, col, value) for every non-zero entry, row-major, as Python scalars."""
        rows, t = np.nonzero(self.bands.T)  # row-major: by row, then offset
        return zip(rows.tolist(), (rows + t - 2).tolist(), self.bands.T[rows, t].tolist())


def build_cmv(alphas: Sequence[AlphaLike], dim: int) -> BandedUnitary:
    """Truncated CMV operator from the first ``dim`` Verblunsky coefficients."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if len(alphas) < dim:
        raise ValueError(f"need at least {dim} coefficients, got {len(alphas)}")
    # a[j + 1] and r[j + 1] hold alpha_j and its rho, so the block formula's
    # alpha_(k-1), alpha_k, alpha_(k+1) are a[k], a[k + 1], a[k + 2].  In front
    # sits the boundary: a fictitious coefficient -1 makes the first two rows
    # come out of the same block formula as the rest.  Past the cut alpha = 0,
    # rho = 1; every entry built from it falls outside the matrix and is
    # dropped by the constructor.
    a, r = zip((-1.0 + 0j, 0.0), *map(disk_point, alphas[:dim]), (0j, 1.0))
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


def apply_from_source(state: Sequence[complex], M: BandedUnitary, support: int) -> np.ndarray:
    """One step of the dynamics: out[c] = sum_r state[r] * M[r, c].

    ``support`` is required: it promises that ``state[support:]`` is zero, and
    only rows below it are read; ``M.dimension`` reads every row.  With
    finite entries the result is bit for bit the full sum: each skipped term
    is a zero product, and adding a zero to an accumulator that starts at
    +0.0 changes nothing.  The output has full length.
    """
    v = np.asarray(state, dtype=complex)
    n = M.dimension
    if v.shape != (n,):
        raise DimensionMismatch(f"state has shape {v.shape}, operator dimension {n}")
    out = np.zeros(n, dtype=complex)
    for o, lo, hi in M.spans:
        hi = min(hi, support)
        if lo < hi:
            out[lo + o : hi + o] += v[lo:hi] * M.bands[o + 2, lo:hi]
    return out


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

