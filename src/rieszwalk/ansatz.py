"""Closed-form generator for the Riesz walk's non-zero Verblunsky parameters.

The non-zero parameters sit at indices 3, 7, 11, ... (every fourth index).
They come from a total closed form driven by the unique decomposition of the
parameter counter m as (1 + (3n-1) 4^p) / 3 with n not congruent to 3 mod 4;
``verify_ansatz`` checks it against the Schur algorithm.  The paper's second
recipe, which places -1/A_p at every 32nd index and fills the seven non-zero
slots between consecutive anchors, is a test-side oracle in
``tests/oracles.py``.

The anchor integers (the "backbone") come from a weighted count over the
arithmetic progressions { ((-2)^j - 1)/3 + k 2^(j+1) : k integer }, j >= 0,
which partition the integers.  All arithmetic in this module is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .riesz import MeasureVariant, caratheodory_series
from .schur import extract_verblunsky


class IndexOutOfRange(ValueError):
    """Sequence evaluated before its first defined index."""


def first_positive(j: int) -> int:
    """First positive member of the j-th progression."""
    if j < 0:
        raise IndexOutOfRange("progressions start at j = 0")
    if j == 0:
        return 2
    return ((-2) ** j - 1) // 3 + (1 - (-1) ** j) * 2**j


def weight(n: int) -> int:
    """Alternating-geometric weight sequence 8, -24, 40, -88, ... from n = 4."""
    if n < 4:
        raise IndexOutOfRange("weight sequence starts at n = 4")
    return 8 + (((-2) ** (n - 4) - 1) // 3) * 32


def count_up_to(j: int, n: int) -> int:
    """Number of members of the j-th progression in [1, n]."""
    gap = 2 ** (j + 1)
    return (n + gap - first_positive(j)) // gap


@lru_cache(maxsize=None)
def weighted_count(n: int) -> int:
    """Sum over progressions of (members in [1, n]) * weight(4 + j).

    Progression j contributes only while its first positive member is <= n.
    Since first_positive(j) >= (2^j - 1)/3 for every j, all terms with
    2^j > 3n + 1 vanish, which bounds the loop.
    """
    total = 0
    j = 0
    while 2**j <= 3 * n + 1:
        c = count_up_to(j, n)
        if c:
            total += c * weight(4 + j)
        j += 1
    return total


@lru_cache(maxsize=None)
def backbone(i: int) -> int:
    """The i-th anchor integer, 13 + weighted_count(i - 1), for i >= 1."""
    if i < 1:
        raise IndexOutOfRange("backbone starts at i = 1")
    return 13 + weighted_count(i - 1)


def backbone_constant(i: int) -> int:
    """Scaled anchors: 3, then 3*backbone(t) and 3*(backbone(t) - 4) interleaved."""
    if i < 0:
        raise IndexOutOfRange("constants start at i = 0")
    if i == 0:
        return 3
    if i % 2:
        return 3 * backbone((i + 1) // 2)
    return 3 * (backbone(i // 2) - 4)


@dataclass(frozen=True)
class IndexDecomposition:
    """Unique writing of m >= 1 as (1 + (3n - 1) 4^p) / 3.

    n >= 1 is never congruent to 3 mod 4 and p >= 0; the map m -> (n, p) is
    a bijection onto that range.
    """

    m: int
    n: int
    p: int


def decompose_index(m: int) -> IndexDecomposition:
    if m < 1:
        raise IndexOutOfRange("decomposition defined for m >= 1")
    t = 3 * m - 1
    p = 0
    while t % 4 == 0:
        t //= 4
        p += 1
    return IndexDecomposition(m, (t + 1) // 3, p)


def nonzero_alpha(m: int) -> Fraction:
    """The m-th non-zero Verblunsky parameter, m = 1, 2, 3, ..."""
    d = decompose_index(m)
    s, r = divmod(d.n, 4)
    four_p = 4**d.p
    if r == 0:
        return Fraction(-(2 * four_p + 1), backbone_constant(s) * four_p)
    if r == 1:
        return Fraction(4 * four_p - 1, (backbone_constant(s) + 3) * four_p)
    if r == 2:
        return Fraction(-(2 * four_p + 1), (backbone_constant(s) + 6) * four_p)
    raise AssertionError("decomposition produced n = 3 mod 4")


def alpha(j: int) -> Fraction:
    """Verblunsky parameter at index j; zero off the residue class 3 mod 4."""
    if j < 0:
        raise IndexOutOfRange("parameters are indexed from 0")
    if j % 4 != 3:
        return Fraction(0)
    return nonzero_alpha((j + 1) // 4)


class LimitFamilies(NamedTuple):
    """The three families whose closures carry every limit point.

    With c(i) = backbone_constant(i): family1 holds -2/c(i) for i >= 1,
    family2 holds 4/(c(i) + 3) and family3 holds -2/(c(i) + 6), both from i = 0.
    """

    family1: tuple[Fraction, ...]
    family2: tuple[Fraction, ...]
    family3: tuple[Fraction, ...]


def limit_values(count: int) -> LimitFamilies:
    """First ``count`` members of each limit-value family, exact."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return LimitFamilies(
        tuple(Fraction(-2, backbone_constant(i)) for i in range(1, count + 1)),
        tuple(Fraction(4, backbone_constant(i) + 3) for i in range(count)),
        tuple(Fraction(-2, backbone_constant(i) + 6) for i in range(count)),
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the closed form against the Schur algorithm.

    ``ansatz_values[m - 1]`` and ``schur_values[m - 1]`` hold the m-th
    non-zero parameter by each route; ``first_mismatch`` is the first m at
    which they differ.
    """

    ansatz_values: tuple[Fraction, ...]
    schur_values: tuple[Fraction, ...]
    first_mismatch: Optional[int]

    @property
    def checked(self) -> int:
        return len(self.schur_values)

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def verify_ansatz(count: int) -> VerificationReport:
    """Compare nonzero_alpha(m), m = 1..count, with the Schur algorithm.

    The Schur route runs on the dense-variant Caratheodory series, where one
    extraction step corresponds to one non-zero parameter; that is four times
    cheaper than extracting from the sparse variant and interleaving zeros.
    Every index is compared, so the report carries both full sequences.
    """
    G = caratheodory_series(count + 1, MeasureVariant.NU)
    schur_values = tuple(extract_verblunsky(G, count))
    ansatz_values = tuple(nonzero_alpha(m) for m in range(1, count + 1))
    first_mismatch = next(
        (m for m, (a, s) in enumerate(zip(ansatz_values, schur_values), 1) if a != s),
        None,
    )
    return VerificationReport(ansatz_values, schur_values, first_mismatch)
