"""Closed-form generator for the Riesz walk's non-zero Verblunsky parameters.

The non-zero parameters sit at indices 3, 7, 11, ... (every fourth index).
They come from a total closed form driven by the unique decomposition of the
parameter counter m as (1 + (3n-1) 4^p) / 3 with n not congruent to 3 mod 4.
The paper's second recipe, which places -1/A_p at every 32nd index and fills
the seven non-zero slots between consecutive anchors, is a test-side oracle
in ``tests/oracles.py``.

The anchor integers (the "backbone") come from a weighted count over the
arithmetic progressions { ((-2)^j - 1)/3 + k 2^(j+1) : k integer }, j >= 0,
which partition the integers.  Progression j is the level set v2(3t + 1) = j
of the 2-adic valuation, since t = ((-2)^j - 1)/3 + k 2^(j+1) gives
3t + 1 = 2^j ((-1)^j + 6k) with an odd second factor.  So the count is a
running sum: each t >= 1 adds weight(4 + v2(3t + 1)).  All arithmetic in
this module is exact.
"""

from __future__ import annotations

from fractions import Fraction


def weight(n: int) -> int:
    """Alternating-geometric weight sequence 8, -24, 40, -88, ... from n = 4."""
    if n < 4:
        raise ValueError("weight sequence starts at n = 4")
    return 8 + (((-2) ** (n - 4) - 1) // 3) * 32


# _BACKBONE[i - 1] is backbone(i); backbone grows it to the largest index asked.
_BACKBONE = [13]


def backbone(i: int) -> int:
    """The i-th anchor integer, 13 + sum of weight(4 + v2(3t + 1)) over 1 <= t < i."""
    if i < 1:
        raise ValueError("backbone starts at i = 1")
    table = _BACKBONE
    for t in range(len(table), i):
        x = 3 * t + 1
        table.append(table[-1] + weight(4 + (x & -x).bit_length() - 1))
    return table[i - 1]


def backbone_constant(i: int) -> int:
    """Scaled anchors: 3, then 3*backbone(t) and 3*(backbone(t) - 4) interleaved."""
    if i < 0:
        raise ValueError("constants start at i = 0")
    if i == 0:
        return 3
    if i % 2:
        return 3 * backbone((i + 1) // 2)
    return 3 * (backbone(i // 2) - 4)


def decompose_index(m: int) -> tuple[int, int]:
    """Unique writing of m >= 1 as (1 + (3n - 1) 4^p) / 3, returned as (n, p).

    n >= 1 is never congruent to 3 mod 4 and p >= 0; the map m -> (n, p) is
    a bijection onto that range.
    """
    if m < 1:
        raise ValueError("decomposition defined for m >= 1")
    t = 3 * m - 1
    p = 0
    while t % 4 == 0:
        t //= 4
        p += 1
    return (t + 1) // 3, p


def nonzero_alpha(m: int) -> Fraction:
    """The m-th non-zero Verblunsky parameter, m = 1, 2, 3, ..."""
    n, p = decompose_index(m)
    s, r = divmod(n, 4)
    four_p = 4**p
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
        raise ValueError("parameters are indexed from 0")
    if j % 4 != 3:
        return Fraction(0)
    return nonzero_alpha((j + 1) // 4)


def limit_values(count: int) -> tuple[tuple[Fraction, ...], ...]:
    """First ``count`` members of the three limit-value families, exact.

    The families' closures carry every limit point.  With c(i) =
    backbone_constant(i), family 1 holds -2/c(i) for i >= 1, family 2 holds
    4/(c(i) + 3) and family 3 holds -2/(c(i) + 6), both from i = 0.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    return (
        tuple(Fraction(-2, backbone_constant(i)) for i in range(1, count + 1)),
        tuple(Fraction(4, backbone_constant(i) + 3) for i in range(count)),
        tuple(Fraction(-2, backbone_constant(i) + 6) for i in range(count)),
    )
