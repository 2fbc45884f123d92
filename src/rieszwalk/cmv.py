"""Finite CMV evolution operators built from Verblunsky coefficients.

A CMV operator is pentadiagonal: rows 0 and 1 are special, then the sparsity
pattern repeats in 2x4 blocks shifted right by two columns per block row.
The finite matrix here is the plain truncation of the infinite one, which
leaves every interior column orthonormal; only the last two columns feel the
cut.  Storage is by diagonals (offsets -2..+2), so one application costs
O(dimension).

Transitions are read along rows: row r lists the amplitudes for one step out
of basis state r.  Applying the operator to a state vector therefore
contracts over the row index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

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
        if abs(value) >= 1:
            raise CoefficientOutOfDisk(f"|{value}| >= 1")
        return complex(value), math.sqrt(1 - value * value)
    z = complex(value)
    mag2 = z.real * z.real + z.imag * z.imag
    # Written so that NaN, which compares False, is rejected too.
    if not (mag2 < 1.0):
        raise CoefficientOutOfDisk(f"{z} is not inside the unit disk")
    return z, math.sqrt(1.0 - mag2)


class BandedUnitary:
    """Unitary with bandwidth 2, stored as five diagonals.

    ``bands[o + 2, r]`` holds the entry at (row r, column r + o).  Instances
    are immutable after construction.
    """

    __slots__ = ("bands", "dimension")

    def __init__(self, bands: np.ndarray):
        if bands.ndim != 2 or bands.shape[0] != 5:
            raise ValueError("bands must have shape (5, dimension)")
        self.bands = bands
        self.dimension = bands.shape[1]
        self.bands.flags.writeable = False

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable[Entry]) -> "BandedUnitary":
        """Inverse of ``nonzero_entries``; drops in-band triples outside the matrix."""
        bands = np.zeros((5, dim), dtype=complex)
        for row, col, value in entries:
            if 0 <= row < dim and 0 <= col < dim:
                bands[col - row + 2, row] = value
        return cls(bands)

    def nonzero_entries(self) -> Iterator[Entry]:
        """Yield (row, col, value) for every non-zero entry, row-major."""
        for r in range(self.dimension):
            for o in range(-2, 3):
                c = r + o
                if 0 <= c < self.dimension:
                    v = self.bands[o + 2, r]
                    if v != 0:
                        yield r, c, complex(v)


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
    # rho = 1; every entry built from it is dropped.
    a, r = zip((-1.0 + 0j, 0.0), *map(disk_point, alphas[:dim]), (0j, 1.0))

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

    return BandedUnitary.from_entries(dim, entries())


def apply_from_source(state: Sequence[complex], M: BandedUnitary) -> np.ndarray:
    """One step of the dynamics: out[c] = sum_r state[r] * M[r, c]."""
    v = np.asarray(state, dtype=complex)
    n = M.dimension
    if v.shape != (n,):
        raise DimensionMismatch(f"state has shape {v.shape}, operator dimension {n}")
    out = np.zeros(n, dtype=complex)
    for o in range(-2, 3):
        band = M.bands[o + 2]
        if o >= 0:
            out[o:] += v[: n - o] * band[: n - o]
        else:
            out[: n + o] += v[-o:] * band[-o:]
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
    # colband[c, t] = entry at (row c - 2 + t, column c)
    colband = np.zeros((n, 5), dtype=complex)
    for t in range(5):
        o = 2 - t
        if o >= 0:
            colband[o:, t] = M.bands[o + 2, : n - o]
        else:
            colband[: n + o, t] = M.bands[o + 2, -o:]
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


def spectral_moments(M: BandedUnitary, n: int) -> np.ndarray:
    """Entries (0, 0) of M^0 .. M^n, exact for the truncation by finite propagation."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if M.dimension < 2 * n + 3:
        raise DimensionTooSmall(
            f"moments through {n} need dimension >= {2 * n + 3}, have {M.dimension}"
        )
    v = np.zeros(M.dimension, dtype=complex)
    v[0] = 1.0
    moments = [v[0]]
    for _ in range(n):
        v = apply_from_source(v, M)
        moments.append(v[0])
    return np.array(moments)
