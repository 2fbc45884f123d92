"""Invariants of the exact layer and the table writer, checked over generated inputs."""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import signed_quartic_digits
from rieszwalk.ansatz import decompose_index
from rieszwalk.cli import main
from rieszwalk.riesz import MeasureVariant, moment

property_settings = settings(deadline=None, max_examples=100)


@st.composite
def signed_quartic_sums(draw):
    """A signed sum of distinct powers of 4, as (j, expansion by decreasing exponent)."""
    exponents = draw(st.sets(st.integers(0, 80), min_size=1, max_size=25))
    expansion = tuple(
        (k, draw(st.sampled_from([1, -1]))) for k in sorted(exponents, reverse=True)
    )
    return sum(sign * 4**k for k, sign in expansion), expansion


@property_settings
@given(signed_quartic_sums(), st.sampled_from(list(MeasureVariant)))
def test_signed_quartic_digits_recover_the_expansion(drawn, variant):
    j, expansion = drawn
    assert signed_quartic_digits(j) == expansion
    # MU's moments are NU's on the expansions that avoid 4^0, and 0 elsewhere.
    if variant is MeasureVariant.MU and expansion[-1][0] == 0:
        assert signed_quartic_digits(j, 1) is None
        assert moment(j, variant) == 0
    else:
        assert moment(j, variant) == Fraction(1, 2 ** len(expansion))


@property_settings
@given(
    st.one_of(
        st.integers(-(10**40), 10**40),
        signed_quartic_sums().map(lambda drawn: drawn[0]),
        signed_quartic_sums().map(lambda drawn: -4 * drawn[0]),
    )
)
def test_mu_moment_is_the_nu_moment_at_a_quarter_of_the_index(j):
    mu = moment(j, MeasureVariant.MU)
    assert mu == (moment(j // 4, MeasureVariant.NU) if j % 4 == 0 else 0)
    if j:
        expansion = signed_quartic_digits(j, 1)
        assert mu == (0 if expansion is None else Fraction(1, 2 ** len(expansion)))


def nu_from_mu(j: int) -> Fraction:
    """NU = (1 + cos theta) MU, so NU's j-th moment mixes MU's at j - 1, j and j + 1."""
    mu = MeasureVariant.MU
    return moment(j, mu) + (moment(j - 1, mu) + moment(j + 1, mu)) / 2


def test_nu_is_one_plus_cosine_times_mu_through_3000():
    assert all(moment(j, MeasureVariant.NU) == nu_from_mu(j) for j in range(-3000, 3001))


@property_settings
@given(
    st.one_of(
        st.integers(-(10**40), 10**40),
        signed_quartic_sums().map(lambda drawn: drawn[0]),
        signed_quartic_sums().map(lambda drawn: 4 * drawn[0]),
    ),
    st.integers(-1, 1),
)
def test_nu_is_one_plus_cosine_times_mu(j, shift):
    # Near a signed sum of powers of 4 (times 4) the three MU moments are not all 0.
    j += shift
    assert moment(j, MeasureVariant.NU) == nu_from_mu(j)


@property_settings
@given(st.integers(1, 10**30))
def test_decompose_index_lands_in_its_range(m):
    n, p = decompose_index(m)
    assert n >= 1 and n % 4 != 3 and p >= 0
    assert 1 + (3 * n - 1) * 4**p == 3 * m


@property_settings
@given(st.integers(1, 10**20).filter(lambda n: n % 4 != 3), st.integers(0, 60))
def test_decompose_index_is_onto_its_range(n, p):
    m, rest = divmod(1 + (3 * n - 1) * 4**p, 3)
    assert rest == 0
    assert decompose_index(m) == (n, p)


def run_table(argv, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    assert code == 0
    return out.getvalue()


def csv_cell(value) -> str:
    """The CSV spelling of one JSON cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


commands = st.one_of(
    st.builds(
        lambda n, v: ["moments", "--max", str(n), "--variant", v],
        st.integers(0, 40), st.sampled_from(["mu", "nu"]),
    ),
    st.builds(
        lambda n, m, v: ["verblunsky", "--count", str(n), "--method", m, "--variant", v],
        st.integers(0, 12), st.sampled_from(["schur", "ansatz", "both"]),
        st.sampled_from(["mu", "nu"]),
    ),
    st.builds(lambda n: ["backbone", "--count", str(n)], st.integers(0, 20)),
    st.builds(lambda n: ["limits", "--count", str(n)], st.integers(0, 6)),
    st.builds(
        lambda n, m: ["first-return", "--coin", "riesz", "--max", str(n), "--method", m],
        st.integers(0, 20), st.sampled_from(["exact", "numeric", "both"]),
    ),
    st.builds(
        lambda n, c, e: ["walk", "--coin", c, "--steps", str(n), "--emit", e],
        st.integers(0, 8), st.sampled_from(["riesz", "hadamard"]),
        st.sampled_from(["distribution", "norm-trace", "matrix"]),
    ),
)


@settings(deadline=None, max_examples=60)
@given(commands, st.booleans())
def test_csv_and_json_carry_the_same_table(argv, use_float):
    argv = argv + (["--float"] if use_float else [])
    payload = json.loads(run_table(argv, "json"))
    lines = run_table(argv, "csv").rstrip("\n").split("\n")
    assert lines[0] == ",".join(payload["columns"])
    assert lines[1:] == [",".join(csv_cell(v) for v in row) for row in payload["rows"]]
