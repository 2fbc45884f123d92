"""Schur algorithm with exact precision accounting.

The Schur function f = (F - 1) / (z (F + 1)) of a Caratheodory series F
is read two ways.  ``extract_verblunsky`` writes it once as an integer
numerator/denominator pair (``_fraction_free_start``) and steps that pair,
one Verblunsky parameter per step.  ``schur_from_caratheodory`` expands f
itself, whose Taylor coefficients are the first-return amplitudes
(``first_return_series``): with R = (F + 1)/2 the moment series,
f = (1 - 1/R)/z, one series reciprocal.  ``renewal_first_return``
computes the same amplitudes from the moments alone, as 1 - 1/r, without
the Schur formula or the n-1 offset; the CLI never calls it, and the
benchmark's output checks use it as an oracle.

The engine works over real rational data (conjugation is the identity);
complex coins are handled numerically elsewhere.  Each Schur step consumes
exactly one trustworthy series order, which the TruncatedSeries ledger
enforces: running out of orders raises instead of silently truncating.

The step-n first-return amplitude is the order n-1 Taylor coefficient of f.
That offset is not an assumption: the test suite asserts that the
renewal inversion of the moment sequence, by its own long-division
reciprocal, coincides with it order by order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain
from typing import Sequence

from .series import TruncatedSeries


class FirstReturnSeries:
    """Amplitudes of first return in exactly n steps, n = 1, 2, ...

    ``amplitudes[i]`` is the step i+1 amplitude and ``cumulative[i]`` the
    sum of the squared amplitudes through step i+1.  Those partial sums must
    be bounded by one: their total is a return probability.  Both fields are
    set once, by the constructor, and cannot be reassigned.
    """

    __slots__ = ("amplitudes", "cumulative")

    def __init__(self, amplitudes: tuple[Fraction, ...]):
        cumulative = tuple(accumulate(a * a for a in amplitudes))
        # The partial sums never decrease, so the last one bounds them all.
        if cumulative and cumulative[-1] > 1:
            raise ValueError("cumulative return probability exceeds 1")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "cumulative", cumulative)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: FirstReturnSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: FirstReturnSeries is immutable")


def _check_unit_constant(F: TruncatedSeries) -> None:
    """F_0 must be 1, or f is not a Schur function."""
    if F.valid_order < 0 or F.coefficient(0) != 1:
        raise ValueError("Caratheodory series must have constant term 1")


def _fraction_free_start(F: TruncatedSeries, length: int) -> tuple[list[int], list[int]]:
    """Integer numerator/denominator polynomials of f through ``length`` orders.

    f = (F - 1) / (z (F + 1)), so p holds F_1..F_length and q holds
    F_0 + 1, F_1..F_(length-1), both scaled by one common denominator.
    """
    _check_unit_constant(F)
    coefficients = [F.coefficient(k) for k in range(length + 1)]
    coefficients[0] += 1
    scale = math.lcm(*(c.denominator for c in coefficients))
    scaled = [c.numerator * (scale // c.denominator) for c in coefficients]
    return scaled[1:], scaled[:-1]


def schur_from_caratheodory(F: TruncatedSeries) -> TruncatedSeries:
    """Schur function f = (F - 1) / (z (F + 1)); valid order drops by one.

    With R = (F + 1)/2, f = (1 - 1/R)/z, so f_k = -(1/R)_(k+1): one
    reciprocal of R, read through F's valid order.  With only F_0 trusted,
    no order of f is, and the result is the empty series.
    """
    _check_unit_constant(F)
    R = TruncatedSeries([1, *(c / 2 for c in F.coefficients[1:])])
    return TruncatedSeries([-c for c in R.reciprocal().coefficients[1:]])


# extract_verblunsky divides the integer content out of its polynomials once
# per this many steps; between strips the entries grow by about the bit
# length of one alpha denominator per step.
_CONTENT_PERIOD = 16

# extract_verblunsky takes this many steps on short prefixes of its
# polynomials before it brings the whole polynomials forward with one packed
# product.  A multiple of _CONTENT_PERIOD, so every full block ends on a
# content strip.
_BLOCK = 64


def _strip_content(*polys: list[int]) -> list[list[int]]:
    """The polynomials divided by the gcd of all their coefficients."""
    g = math.gcd(*chain.from_iterable(polys))
    if g > 1:
        return [[v // g for v in poly] for poly in polys]
    return list(polys)


def _height(*polys: list[int]) -> int:
    """Bit length of the largest coefficient modulus."""
    return max(max(max(poly), -min(poly)) for poly in polys).bit_length()


def _slot_bias(width: int, slots: int) -> tuple[int, int]:
    """The bias 2^(8 width - 1) of one slot and its sum over ``slots`` slots."""
    bias = 1 << (8 * width - 1)
    return bias, int.from_bytes(bias.to_bytes(width, "little") * slots, "little")


def _pack(values: list[int], width: int) -> int:
    """sum values[i] 2^(8 width i), for |values[i]| < 2^(8 width - 1)."""
    bias, biases = _slot_bias(width, len(values))
    packed = b"".join([(v + bias).to_bytes(width, "little") for v in values])
    return int.from_bytes(packed, "little") - biases


def _unpack(x: int, width: int, slots: int, lo: int, hi: int) -> list[int]:
    """Slots lo..hi-1 of a ``slots``-slot packed integer whose slots all lie in
    (-2^(8 width - 1), 2^(8 width - 1))."""
    bias, biases = _slot_bias(width, slots)
    raw = (x + biases).to_bytes(width * slots, "little")
    return [
        int.from_bytes(raw[i : i + width], "little") - bias
        for i in range(lo * width, hi * width, width)
    ]


def extract_verblunsky(F: TruncatedSeries, count: int) -> list[Fraction]:
    """First ``count`` Verblunsky parameters of the measure behind F, exactly.

    Equivalent to iterating the Schur step (strip the constant term,
    Moebius-shift, divide by z) on the series ``count`` times, but carries
    the iterate as a ratio p/q of two integer-coefficient polynomials: with
    alpha = n/d in lowest terms the step is z p' = d p - n q and
    q' = d q - n p, the latter cut one entry short.  q[0] starts at twice
    the common denominator and stays positive, so ``|p[0]| < q[0]`` is the
    disk test.  The results do not depend on the content, since each alpha
    is a normalised Fraction.

    The steps run in blocks of ``_BLOCK``, as in the block Schur algorithm
    of Ammar and Gragg (SIAM J. Matrix Anal. Appl. 9, 1988).  A block of k
    steps runs the step loop on the first k entries of p and q only, which
    is all that its parameters read, and builds the block's integer
    transfer polynomials A and B alongside: z^k p_k = A p + B q and
    z^k q_k = rev(B) p + rev(A) q, where rev reverses a list of k + 1
    entries.  (The step matrix ((d, -n), (-n z, d z)) makes the lower row
    of the transfer matrix the reversal of the upper one, by induction.)
    The whole p and q then move forward k steps at once: each coefficient
    list is packed into one integer in fixed-width slots, so each product
    is two big-integer multiplications in C.  The last block forms no
    product.  The common integer factor of the two prefixes, and separately
    that of A and B, is divided out on every ``_CONTENT_PERIOD``-th step,
    and that of the new p and q after each product.
    ``tests/test_schur.py`` keeps the series stepper as an oracle and pins
    the two routes to bit-identical results.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if F.valid_order < count + 1:
        raise ValueError(
            f"need valid_order >= {count + 1}, have {F.valid_order}"
        )
    # Step k reads p[0] and q[0] after k index drops, so the loop reads F
    # through order count; the guard above asks for one order more.
    p, q = _fraction_free_start(F, count)
    out: list[Fraction] = []
    for start in range(0, count, _BLOCK):
        k = min(_BLOCK, count - start)
        head_p, head_q = p[:k], q[:k]
        A, B = [1], [0]
        for step in range(start, start + k):
            p0, q0 = head_p[0], head_q[0]
            if abs(p0) >= q0:
                # A finitely supported measure, or corrupt input: no step follows.
                raise ValueError(f"|alpha_{step}| >= 1")
            alpha = Fraction(p0, q0)
            out.append(alpha)
            # With p0 = t*n, q0 = t*d and t = gcd(p0, q0) > 0, the new q0
            # is t*(d*d - n*n) > 0, and the numerator's constant term
            # t*(d*n - n*d) cancels exactly, so the shift is an index drop.
            n, d = alpha.numerator, alpha.denominator
            high, low = zip(head_p[1:], head_q[1:]), zip(head_p[:-1], head_q[:-1])
            head_p = [d * x - n * y for x, y in high]
            head_q = [d * y - n * x for x, y in low]
            A, B = (
                [d * a - n * b for a, b in zip(A, reversed(B))] + [0],
                [d * b - n * a for b, a in zip(B, reversed(A))] + [0],
            )
            if step % _CONTENT_PERIOD == _CONTENT_PERIOD - 1:
                head_p, head_q = _strip_content(head_p, head_q)
                A, B = _strip_content(A, B)
        if start + k == count:
            break
        # A product coefficient sums 2(k+1) terms, each under
        # 2^(height(A, B) + height(p, q)), so its modulus is under
        # 2^(height(A, B) + height(p, q) + bitlen(k+1) + 1); a slot holds
        # one more bit, for the sign.
        bits = _height(A, B) + _height(p, q) + (k + 1).bit_length() + 2
        width = (bits + 7) // 8
        xp, xq = _pack(p, width), _pack(q, width)
        xa, xb = _pack(A, width), _pack(B, width)
        xra, xrb = _pack(A[::-1], width), _pack(B[::-1], width)
        slots = len(p) + k
        p, q = _strip_content(
            _unpack(xa * xp + xb * xq, width, slots, k, len(p)),
            _unpack(xrb * xp + xra * xq, width, slots, k, len(q)),
        )
    return out


def first_return_series(f: TruncatedSeries) -> FirstReturnSeries:
    """First-return amplitudes off the Schur function: step n is f's order n - 1."""
    return FirstReturnSeries(f.coefficients)


def renewal_first_return(
    moments: Sequence[Fraction], max_n: int
) -> FirstReturnSeries:
    """First-return amplitudes from the moment sequence alone.

    With r(z) = sum_n moments[n] z^n the first-return generating series is
    1 - 1/r(z) (the renewal identity).  Its input is the moments alone, so
    it checks the Schur formula and the n-1 offset; it shares
    ``TruncatedSeries.reciprocal``, which the ``reciprocal``/``divide`` of
    ``tests/oracles.py`` and the F_p recursion of ``bench/checks.py`` check
    independently.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if len(moments) < max_n + 1:
        raise ValueError(f"need {max_n + 1} moments, got {len(moments)}")
    if Fraction(moments[0]) != 1:
        raise ValueError("zeroth moment must be 1")
    inverse = TruncatedSeries(moments[: max_n + 1]).reciprocal()
    return FirstReturnSeries(tuple(-c for c in inverse.coefficients[1:]))


def cumulative_return_probability(a: FirstReturnSeries) -> tuple[Fraction, ...]:
    """Partial sums of squared first-return amplitudes; monotone and <= 1."""
    return a.cumulative
