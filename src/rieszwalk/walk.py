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
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .cmv import PERIOD, BandedUnitary, apply_on_residues, build_cmv

_TINY = float(np.finfo(float).tiny)  # the smallest normal float, 2 ** -1022


class CoinMatrix:
    """A 2x2 coin, unitary to within 1e-12; construction rejects any other.

    The entries are set once, by the constructor, and cannot be reassigned.
    """

    __slots__ = ("c11", "c12", "c21", "c22")

    def __init__(self, c11: complex, c12: complex, c21: complex, c22: complex):
        for name, value in zip(self.__slots__, (c11, c12, c21, c22)):
            object.__setattr__(self, name, value)
        err = self.unitarity_error()
        # Written so that a NaN error (a non-finite entry) is rejected too.
        if not (err <= 1e-12):
            raise ValueError(f"coin is not unitary (error {err:.3g})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: CoinMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: CoinMatrix is immutable")

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
    at least (dim + 1) // 2 coins are consumed.  Site i's coin fills rows 2i
    and 2i + 1: a move left to column 2i - 1 (c21, c22) and a move right to
    column 2i + 2 (c11, c12); at site 0 the left move lands in column 0.
    The bands are written by slices, each coin entry copied as it is; the
    last sites' moves right past the matrix are written too, and
    ``BandedUnitary`` drops them.
    """
    if dim < 4:
        raise ValueError("dim must be >= 4")
    sites = (dim + 1) // 2
    if isinstance(coins, CoinMatrix):
        c = [coins] * sites
    else:
        c = list(coins[:sites])
        if len(c) < sites:
            raise ValueError(f"need at least {sites} coins, got {len(c)}")
    h = dim // 2  # sites with an odd row inside the matrix
    bands = np.zeros((5, dim), dtype=complex)
    bands[2, 0] = c[0].c21  # row 2i
    bands[1, 2::2] = [s.c21 for s in c[1:]]
    bands[4, 0::2] = [s.c11 for s in c]
    bands[1, 1] = c[0].c22  # row 2i + 1
    bands[0, 3::2] = [s.c22 for s in c[1:h]]
    bands[3, 1::2] = [s.c12 for s in c[:h]]
    return BandedUnitary(bands)


def hadamard_alpha(count: int) -> list[float]:
    """Verblunsky coefficients of the Hadamard walk with the reflecting origin.

    Every other coefficient vanishes and the non-zero ones have modulus
    1/sqrt(2), starting at +1/sqrt(2) and alternating in sign.  With this
    sign pattern the CMV operator is diagonally phase-equivalent to
    coined_walk_matrix(HADAMARD_COIN), entry for entry; the test suite
    derives the conjugating phases rather than assuming them.
    """
    a = 1 / math.sqrt(2)
    return [0.0 if j % 2 else (-a if j % 4 else a) for j in range(count)]


def riesz_walk_matrix(dim: int) -> BandedUnitary:
    """CMV operator of the Riesz measure, exact coefficients rounded once."""
    from . import ansatz

    return build_cmv([ansatz.alpha(j) for j in range(dim)], dim)


class WalkState(NamedTuple):
    """Amplitude vector over |site> tensor |spin> basis states."""

    amplitudes: np.ndarray

    @classmethod
    def origin_up(cls, dim: int) -> "WalkState":
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return cls(v)

    def norm(self) -> float:
        # np.linalg.norm's path for a 1-D complex array, without its checks.
        r, i = self.amplitudes.real, self.amplitudes.imag
        return math.sqrt(r.dot(r) + i.dot(i))


class PositionDistribution(NamedTuple):
    """Site-probability law of a walk state."""

    probabilities: np.ndarray


def _steps(M: BandedUnitary, amplitudes: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """``trajectory`` over bare arrays.  Each step reads the array the last one
    yielded, so an edit to it between steps carries forward; an edit may
    zero entries, but not make one non-zero above the highest non-zero one."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    v = np.asarray(amplitudes, dtype=complex)
    if v.shape != (M.dimension,):
        raise ValueError(
            f"state length {v.shape[0] if v.ndim == 1 else v.shape} "
            f"!= dimension {M.dimension}"
        )
    nonzero = np.nonzero(v)[0]
    high = int(nonzero[-1]) if nonzero.size else 0
    needed = (high | 1) + 2 * steps
    if M.dimension < needed:
        raise ValueError(
            f"{steps} steps from support <= {high} need dimension >= {needed}, "
            f"have {M.dimension}"
        )
    residues = sum(1 << t for t in set((nonzero % PERIOD).tolist()))
    # The state is zero from index top on.  A step raises top by two (the
    # light cone, capped at the dimension); the flush then lowers it past
    # the run of entries below tiny at the top.
    top = high + 1
    for _ in range(steps):
        v, residues = apply_on_residues(v, M, top, residues)
        top = min(top + 2, M.dimension)
        while top:
            z = v.item(top - 1)
            if not (abs(z.real) < _TINY and abs(z.imag) < _TINY):
                break
            v[top - 1] *= 0.0  # an exact zero keeps its sign
            top -= 1
        yield v


def trajectory(M: BandedUnitary, initial: WalkState, steps: int) -> Iterator[WalkState]:
    """The state after each of steps 1..steps; the truncation must be faithful.

    Every check runs before the first state is produced.  In both builders'
    operators a step moves amplitude up by at most two indices from an even
    index and one from an odd index, so a state whose highest non-zero index
    is ``high`` needs dimension ``(high | 1) + 2 * steps``, which is
    ``2 * steps + 1`` from the origin.  At it every state is bit for bit a
    larger truncation's prefix.

    After each step the sub-normal front is flushed: from the top of the
    light cone down, every entry whose real and imaginary parts are both
    below ``np.finfo(float).tiny`` is multiplied by 0.0, up to the first
    entry that is not; entries below that one are never touched.  These are
    rounding debris (the Hadamard walk's exact front after k steps is
    2 ** (-k / 2), and it leaves such a run from step 2044 on).  A
    sub-normal added to a part of modulus at least 2 ** -969 leaves it
    unchanged, so the flush moves only the debris and the last bits of
    amplitudes near it (below 2 ** -956 after 4000 Hadamard steps), all of
    whose squares are zero: no norm or site probability moves, and
    stepping the debris would only be slow.

    Each step passes the flushed top to ``cmv.apply_on_residues`` as its
    ``support`` promise, with the residues mod ``PERIOD`` at which the state
    can be non-zero: taken from the initial state's non-zero indices, then
    carried through the operator's plans, which read the zero pattern from
    its bands.  So a step reads only the rows the walk can have reached and
    the band entries it can meet there, with results bit for bit those of
    stepping over the full dimension and flushing the same run.
    """
    return map(WalkState, _steps(M, initial.amplitudes, steps))


def evolve(M: BandedUnitary, initial: WalkState, steps: int) -> WalkState:
    """The last state of ``trajectory``; the initial state, as an array, for 0 steps."""
    state = WalkState(np.asarray(initial.amplitudes, dtype=complex))
    for state in trajectory(M, initial, steps):
        pass
    return state


def position_distribution(state: WalkState) -> PositionDistribution:
    """Collapse spin: P(site i) = |up amplitude|^2 + |down amplitude|^2."""
    amp = state.amplitudes
    n_sites = (amp.shape[0] + 1) // 2
    padded = np.zeros(2 * n_sites, dtype=complex)
    padded[: amp.shape[0]] = amp
    probs = np.abs(padded[0::2]) ** 2 + np.abs(padded[1::2]) ** 2
    return PositionDistribution(probs)


def first_return_numeric(M: BandedUnitary, max_n: int) -> np.ndarray:
    """First-return amplitudes for steps 1..max_n from the matrix alone.

    The walk is killed at the origin: step from e0 in ``trajectory``'s loop,
    read the amplitude that came back to index 0, then remove it.  So the
    step-n amplitude is a_n = <e0, M (Q M)^(n-1) e0>, where Q removes the
    origin (Grunbaum, Velazquez, Werner and Werner, Commun. Math. Phys. 320,
    2013).  The dimension required is ``trajectory``'s from the origin,
    2 * max_n + 1.  Entry [n - 1] of the result is the step-n amplitude.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    a = np.zeros(max_n, dtype=complex)
    for n, v in enumerate(_steps(M, WalkState.origin_up(M.dimension).amplitudes, max_n)):
        a[n] = v[0]
        v[0] = 0
    return a
