"""Independent checks of the outputs the benchmark's rieszwalk commands write.

Every checker recomputes what the output must hold from first principles and
never compares with a stored copy of an earlier output:

* ``check_verblunsky``: the Schur recursion over F_p for two primes below
  2**31, fed by the Riesz moments from the signed base-4 digit rule.
* ``check_first_return``: the renewal inversion 1 - 1/r(z) of the moments
  over the same primes, and the exact running sum of squared amplitudes.
* ``check_distribution``: the walk evolved through the CMV factorisation
  C = L M into 2x2 blocks Theta(a) = [[conj(a), rho], [rho, -a]] (Simon,
  *OPUC*), with the coefficients taken from ``rieszwalk.ansatz.alpha``.
* ``check_norm_trace``: norm conservation at every step.

A checker raises ``CheckFailed`` on the first violation it finds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Both primes are below 2**31, so a product of two residues stays below 2**62
# and an int64 difference of two such products cannot overflow.
PRIMES = (2147483647, 2147483629)
_P = np.array(PRIMES, dtype=np.int64).reshape(2, 1)

DISCREPANCY_LIMIT = 1e-8
PROBABILITY_TOL = 1e-9
NORM_TOL = 1e-11


class CheckFailed(Exception):
    """An output violates a property its independent recomputation fixes."""


def quartic_digit_count(j: int, dense: bool) -> int | None:
    """Number of terms in the signed expansion j = +-4^k1 +- ... , or None.

    ``dense`` admits the exponent 0 (the NU variant); otherwise every exponent
    must be >= 1 (the MU variant).  None means the moment vanishes.
    """
    m = abs(j)
    count = 0
    level = 0
    while m:
        digit = m % 4
        if digit == 2:
            return None
        if digit:
            if level == 0 and not dense:
                return None
            count += 1
            m = (m - digit) // 4 if digit == 1 else (m + 1) // 4
        else:
            m //= 4
        level += 1
    return count


def moments_mod_p(count: int, dense: bool, primes=PRIMES) -> np.ndarray:
    """Moments 0..count-1 as residues, shape (len(primes), count)."""
    out = np.zeros((len(primes), count), dtype=np.int64)
    for j in range(count):
        k = 0 if j == 0 else quartic_digit_count(j, dense)
        if k is not None:
            for i, p in enumerate(primes):
                out[i, j] = pow(2, -k, p)
    return out


@lru_cache(maxsize=8)
def schur_alphas_mod_p(count: int, primes: tuple[int, ...] = PRIMES) -> np.ndarray:
    """First ``count`` NU Verblunsky coefficients mod each prime, by Schur.

    f = (F - 1) / (z (F + 1)) is carried as the ratio p/q of two series; each
    step reads alpha = p0/q0 and maps p' = q0 p[1:] - p0 q[1:],
    q' = q0 q[:-1] - p0 p[:-1].  A vanishing q0 raises: the step cannot be
    checked, and is never skipped.
    """
    P = np.array(primes, dtype=np.int64).reshape(-1, 1)
    length = count + 1
    moments = moments_mod_p(length + 1, dense=True, primes=primes)
    F = (2 * moments) % P
    F[:, 0] = 1
    p = F[:, 1 : length + 1].copy()
    q = F[:, :length].copy()
    q[:, 0] += 1
    q %= P
    out = np.zeros((len(primes), count), dtype=np.int64)
    for step in range(count):
        p0 = p[:, :1].copy()
        q0 = q[:, :1].copy()
        for i, prime in enumerate(primes):
            if q0[i, 0] == 0:
                raise CheckFailed(f"Schur denominator is 0 mod {prime} at step {step}")
            out[i, step] = int(p0[i, 0]) * pow(int(q0[i, 0]), -1, prime) % prime
        p, q = (q0 * p[:, 1:] - p0 * q[:, 1:]) % P, (q0 * q[:, :-1] - p0 * p[:, :-1]) % P
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)
def first_return_mod_p(max_n: int) -> np.ndarray:
    """Amplitudes 1..max_n of 1 - 1/r(z), r the MU moment series, mod each prime."""
    r = moments_mod_p(max_n + 1, dense=False)
    b = np.zeros_like(r)
    b[:, 0] = 1
    for n in range(1, max_n + 1):
        terms = (r[:, 1 : n + 1] * b[:, n - 1 :: -1]) % _P
        b[:, n] = -terms.sum(axis=1) % _P[:, 0]
    out = (-b[:, 1:]) % _P
    out.flags.writeable = False
    return out


def residues(value: Fraction, what: str) -> list[int]:
    """``value`` mod each prime; a denominator that vanishes mod p fails."""
    out = []
    for p in PRIMES:
        if value.denominator % p == 0:
            raise CheckFailed(f"{what}: denominator of {value} is 0 mod {p}")
        out.append(value.numerator * pow(value.denominator, -1, p) % p)
    return out


def _csv(text: str, header: list[str], rows: int) -> list[list[str]]:
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != header:
        raise CheckFailed(f"header {table[:1]} is not {header}")
    if len(table) - 1 != rows:
        raise CheckFailed(f"{len(table) - 1} rows, expected {rows}")
    return table[1:]


def check_verblunsky(text: str, count: int) -> None:
    """``verblunsky --count N --method both --variant nu`` CSV output."""
    rows = _csv(text, ["index", "alpha_ansatz", "alpha_schur", "equal"], count)
    ref = schur_alphas_mod_p(count)
    for m, (index, ansatz, schur, equal) in enumerate(rows, start=1):
        if index != str(m - 1):
            raise CheckFailed(f"row {m}: index {index}, expected {m - 1}")
        if equal != "true":
            raise CheckFailed(f"row {m}: equal is {equal!r}")
        for name, cell in (("alpha_ansatz", ansatz), ("alpha_schur", schur)):
            value = Fraction(cell)
            if abs(value) >= 1:
                raise CheckFailed(f"row {m}: |{name}| = |{value}| >= 1")
            if residues(value, f"row {m} {name}") != [int(x) for x in ref[:, m - 1]]:
                raise CheckFailed(f"row {m}: {name} = {value} disagrees with Schur mod p")


def check_first_return(text: str, max_n: int) -> None:
    """``first-return --coin riesz --method both --format json`` output."""
    try:
        table = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"not JSON: {exc}") from exc
    header = ["n", "amplitude", "cumulative_probability", "discrepancy"]
    if table.get("columns") != header:
        raise CheckFailed(f"columns {table.get('columns')} are not {header}")
    rows = table["rows"]
    if len(rows) != max_n:
        raise CheckFailed(f"{len(rows)} rows, expected {max_n}")
    ref = first_return_mod_p(max_n)
    total = Fraction(0)
    previous = Fraction(0)
    for n, (index, amplitude, cumulative, gap) in enumerate(rows, start=1):
        if index != n:
            raise CheckFailed(f"row {n}: n is {index}")
        a = Fraction(amplitude)
        if residues(a, f"row {n} amplitude") != [int(x) for x in ref[:, n - 1]]:
            raise CheckFailed(f"row {n}: amplitude {a} disagrees with renewal mod p")
        total += a * a
        c = Fraction(cumulative)
        if c != total:
            raise CheckFailed(f"row {n}: cumulative {c} is not the running sum {total}")
        if c < previous or c > 1:
            raise CheckFailed(f"row {n}: cumulative {c} decreases or exceeds 1")
        previous = c
        if not (0 <= gap <= DISCREPANCY_LIMIT):
            raise CheckFailed(f"row {n}: discrepancy {gap} outside [0, 1e-8]")


def cmv_distribution(alphas: list[Fraction], steps: int) -> np.ndarray:
    """Site probabilities after ``steps`` steps from site 0 spin up.

    The state is a row vector v and one step is v -> (v L) M, where
    L = Theta_0 + Theta_2 + ... and M = 1 + Theta_1 + Theta_3 + ... act on
    index pairs (2k, 2k+1) and (2k+1, 2k+2).  ``alphas`` must hold an even
    number of coefficients, at least 2 * steps + 4, so the cut at the end is
    never reached.
    """
    dim = len(alphas)
    a = np.array([float(x) for x in alphas], dtype=complex)
    rho = np.array([math.sqrt(1 - x * x) for x in alphas])
    ae, re, ao, ro = a[0::2], rho[0::2], a[1:-1:2], rho[1:-1:2]
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    w = np.empty_like(v)
    for _ in range(steps):
        up, down = v[0::2], v[1::2]
        w[0::2] = np.conj(ae) * up + re * down
        w[1::2] = re * up - ae * down
        v = w.copy()
        left, right = w[1:-1:2], w[2::2]
        v[1:-1:2] = np.conj(ao) * left + ro * right
        v[2::2] = ro * left - ao * right
        v[-1] = np.conj(a[-1]) * w[-1]
    return np.abs(v[0::2]) ** 2 + np.abs(v[1::2]) ** 2


@lru_cache(maxsize=8)
def riesz_distribution(steps: int) -> np.ndarray:
    from rieszwalk.ansatz import alpha

    out = cmv_distribution([alpha(j) for j in range(2 * steps + 8)], steps)
    out.flags.writeable = False
    return out


def check_distribution(text: str, steps: int) -> None:
    """``walk --coin riesz --steps N`` CSV output."""
    rows = _csv(text, ["site", "x_over_n", "probability"], steps + 1)
    ref = riesz_distribution(steps)
    total = 0.0
    for site, (index, x, prob) in enumerate(rows):
        if index != str(site) or float(x) != (site / steps if steps else 0.0):
            raise CheckFailed(f"row {site}: site/x_over_n are {index}, {x}")
        p = float(prob)
        if not p >= 0:
            raise CheckFailed(f"site {site}: probability {p} < 0")
        if not abs(p - ref[site]) <= PROBABILITY_TOL:
            raise CheckFailed(f"site {site}: probability {p}, CMV factorisation gives {ref[site]}")
        total += p
    if not abs(total - 1) <= PROBABILITY_TOL:
        raise CheckFailed(f"probabilities sum to {total}")


def check_norm_trace(text: str, steps: int) -> None:
    """``walk --coin hadamard --steps N --emit norm-trace`` CSV output."""
    rows = _csv(text, ["step", "norm"], steps + 1)
    for step, (index, norm) in enumerate(rows):
        if index != str(step):
            raise CheckFailed(f"row {step}: step is {index}")
        if not abs(float(norm) - 1) <= NORM_TOL:
            raise CheckFailed(f"step {step}: norm {norm} drifts more than 1e-11")
