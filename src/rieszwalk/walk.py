"""Quantum-walk dynamics on the non-negative integers.

Basis ordering: index 2i is site i with spin up, index 2i+1 is site i with
spin down.  A spin-up walker moves right keeping its spin or moves left
flipping it; spin-down mirrors this; at site 0 the doomed left move is
identified with staying at site 0 spin up, which keeps the operator unitary.

Two operator families are built: coined walks (a 2x2 unitary coin per site,
pattern from the ordering above) and CMV operators driven by a Verblunsky
sequence.  The Riesz walk is the CMV operator of the exact closed-form
parameters; the Hadamard walk is the standard constant-coin baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import ansatz
from .cmv import (
    BandedUnitary,
    DimensionMismatch,
    DimensionTooSmall,
    VerblunskyCoefficient,
    apply_from_source,
    build_cmv,
    spectral_moments,
)


class NonUnitaryCoin(ValueError):
    """A coin matrix failed the unitarity check."""


@dataclass(frozen=True)
class CoinMatrix:
    """A 2x2 coin, unitary to within 1e-12; construction rejects any other."""

    c11: complex
    c12: complex
    c21: complex
    c22: complex

    def __post_init__(self):
        err = self.unitarity_error()
        # Written so that a NaN error (a non-finite entry) is rejected too.
        if not (err <= 1e-12):
            raise NonUnitaryCoin(f"coin is not unitary (error {err:.3g})")

    def unitarity_error(self) -> float:
        """Max deviation of coin^H coin from the identity."""
        c = np.array([[self.c11, self.c12], [self.c21, self.c22]], dtype=complex)
        with np.errstate(all="ignore"):  # a non-finite entry gives inf or NaN
            return float(np.max(np.abs(c.conj().T @ c - np.eye(2))))


HADAMARD_COIN = CoinMatrix(
    1 / math.sqrt(2), 1 / math.sqrt(2), 1 / math.sqrt(2), -1 / math.sqrt(2)
)


def coined_walk_matrix(
    coins: Union[CoinMatrix, Sequence[CoinMatrix]], dim: int
) -> BandedUnitary:
    """Transition matrix of the coined walk; rows are source states.

    ``coins`` may be a single coin (used at every site) or one coin per site;
    at least (dim + 1) // 2 coins are consumed.
    """
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

    return BandedUnitary.from_entries(dim, entries())


def hadamard_alpha(count: int) -> list[VerblunskyCoefficient]:
    """Verblunsky coefficients of the Hadamard walk with the reflecting origin.

    Every other coefficient vanishes and the non-zero ones have modulus
    1/sqrt(2), starting at +1/sqrt(2) and alternating in sign.  With this
    sign pattern the CMV operator is diagonally phase-equivalent to
    coined_walk_matrix(HADAMARD_COIN), entry for entry; the test suite
    derives the conjugating phases rather than assuming them.
    """
    a = 1 / math.sqrt(2)
    out = []
    for j in range(count):
        if j % 2:
            out.append(VerblunskyCoefficient(0.0))
        else:
            out.append(VerblunskyCoefficient(a if (j // 2) % 2 == 0 else -a))
    return out


def riesz_walk_matrix(dim: int) -> BandedUnitary:
    """CMV operator of the Riesz measure, exact coefficients rounded once."""
    return build_cmv([ansatz.alpha(j) for j in range(dim)], dim)


@dataclass(frozen=True)
class WalkState:
    """Amplitude vector over |site> tensor |spin> basis states."""

    amplitudes: np.ndarray
    step_count: int = 0

    @classmethod
    def origin_up(cls, dim: int) -> "WalkState":
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return cls(v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class PositionDistribution:
    """Site-probability law of a walk state after ``step_count`` steps."""

    probabilities: np.ndarray
    step_count: int


def evolve(M: BandedUnitary, initial: WalkState, steps: int) -> WalkState:
    """Apply ``steps`` one-step transitions; the truncation must be safe.

    The support spreads by at most two indices per step; the required
    dimension keeps it away from the deficient last columns for every step.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    v = np.asarray(initial.amplitudes, dtype=complex)
    if v.shape != (M.dimension,):
        raise DimensionMismatch(
            f"state length {v.shape[0] if v.ndim == 1 else v.shape} "
            f"!= dimension {M.dimension}"
        )
    # Only a small dim or a state in the last 2 * steps + 2 indices can fail the rule.
    edge = M.dimension - 2 * steps - 2
    if steps and (edge < 6 or v[edge:].any()):
        support = np.nonzero(v)[0]
        high = int(support[-1]) if support.size else 0
        needed = 2 * steps + 8 if high <= 1 else high + 2 * steps + 3
        if M.dimension < needed:
            raise DimensionTooSmall(
                f"{steps} steps from support <= {high} need dimension >= {needed}"
            )
    for _ in range(steps):
        v = apply_from_source(v, M)
    return WalkState(v, initial.step_count + steps)


def position_distribution(state: WalkState) -> PositionDistribution:
    """Collapse spin: P(site i) = |up amplitude|^2 + |down amplitude|^2."""
    amp = state.amplitudes
    n_sites = (amp.shape[0] + 1) // 2
    padded = np.zeros(2 * n_sites, dtype=complex)
    padded[: amp.shape[0]] = amp
    probs = np.abs(padded[0::2]) ** 2 + np.abs(padded[1::2]) ** 2
    return PositionDistribution(probs, state.step_count)


def first_return_numeric(M: BandedUnitary, max_n: int) -> np.ndarray:
    """First-return amplitudes for steps 1..max_n from the matrix alone.

    Powers of M supply the plain return amplitudes r_n = (M^n)[0, 0]; the
    renewal recursion a_n = r_n - sum_k a_k r_(n-k) strips the non-first
    returns.  Entry [n - 1] of the result is the step-n amplitude.
    """
    # Python complex arithmetic rounds exactly as numpy's complex128 scalars
    # do, at a fraction of the per-operation cost.
    r = spectral_moments(M, max_n).tolist()
    a = [0j] * (max_n + 1)
    for n in range(1, max_n + 1):
        acc = r[n]
        for k in range(1, n):
            acc -= a[k] * r[n - k]
        a[n] = acc
    return np.array(a[1:], dtype=complex)
