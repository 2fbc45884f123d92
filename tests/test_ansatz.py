from fractions import Fraction as F
from itertools import count

import pytest

from expected_values import BACKBONE_17, COUNTS_AT_40, NONZERO_PARAMS_36
from oracles import alpha_from_offsets, progression_contains
from rieszwalk.ansatz import (
    alpha,
    backbone,
    backbone_constant,
    decompose_index,
    limit_values,
    nonzero_alpha,
    weight,
)


def valuation(x: int) -> int:
    """2-adic valuation of x != 0, by repeated halving."""
    j = 0
    while x % 2 == 0:
        x //= 2
        j += 1
    return j


# -- progressions and counts -------------------------------------------------


@pytest.mark.parametrize("j,expected", [(0, 2), (1, 3), (2, 1), (3, 13), (4, 5), (5, 53), (6, 21)])
def test_first_positive_examples(j, expected):
    assert progression_contains(j, expected)
    assert not any(progression_contains(j, t) for t in range(1, expected))
    assert valuation(3 * expected + 1) == j


def test_first_positive_matches_enumeration():
    # The least t >= 1 with v2(3t + 1) = j is the first positive member of
    # progression j; every one through j = 16 lies below 2^17.
    first = {}
    for t in range(1, 2**17):
        first.setdefault(valuation(3 * t + 1), t)
    for j in range(17):
        d = first[j]
        assert progression_contains(j, d)
        assert not any(progression_contains(j, t) for t in range(1, d))


@pytest.mark.parametrize(
    "n,expected", [(4, 8), (5, -24), (6, 40), (7, -88), (8, 168), (9, -344)]
)
def test_weight_examples(n, expected):
    assert weight(n) == expected


def test_weight_first_differences():
    for n in range(4, 14):
        assert weight(n + 1) - weight(n) == (-2) ** (n + 1)


def test_weight_before_start():
    with pytest.raises(ValueError, match="weight sequence starts at n = 4"):
        weight(3)


def test_counts_at_40():
    # The printed tallies are the level sets of v2(3t + 1) over [1, 40].
    counts = [sum(valuation(3 * t + 1) == j for t in range(1, 41)) for j in range(30)]
    assert counts[:7] == COUNTS_AT_40
    assert not any(counts[7:])


def test_valuation_level_sets_are_the_progressions():
    # t in progression j gives 3t + 1 = 2^j ((-1)^j + 6k), an odd second factor.
    for t in range(1, 10_001):
        homes = [j for j in range(31) if progression_contains(j, t)]
        assert homes == [valuation(3 * t + 1)], t


def test_progressions_partition_integers():
    for t in range(-2000, 2001):
        homes = [j for j in range(31) if progression_contains(j, t)]
        assert len(homes) == 1, f"{t} lies in progressions {homes}"


# -- backbone ----------------------------------------------------------------


def test_weighted_count_examples():
    # backbone(n + 1) - 13 is the weighted count over [1, n].
    assert backbone(1) - 13 == 0
    assert backbone(2) - 13 == 40
    assert backbone(4) - 13 == 24


def test_backbone_is_the_running_weighted_count():
    # The paper's definition, each t's progression found by membership alone.
    total = 13
    for i in range(1, 20_001):
        assert backbone(i) == total, i
        total += weight(4 + next(j for j in count() if progression_contains(j, i)))


def test_backbone_list():
    assert [backbone(i) for i in range(1, 18)] == BACKBONE_17


def test_backbone_before_start():
    with pytest.raises(ValueError, match="backbone starts at i = 1"):
        backbone(0)


@pytest.mark.parametrize("i,expected", [(0, 3), (1, 39), (2, 27), (3, 159), (4, 147)])
def test_backbone_constant_examples(i, expected):
    assert backbone_constant(i) == expected


# -- index decomposition and closed form --------------------------------------


@pytest.mark.parametrize("m,n,p", [(1, 1, 0), (3, 1, 1), (11, 1, 2), (2, 2, 0), (4, 4, 0)])
def test_decompose_examples(m, n, p):
    assert decompose_index(m) == (n, p)


def test_decompose_bijection_prefix():
    seen = set()
    for m in range(1, 10_001):
        n, p = decompose_index(m)
        assert n >= 1 and n % 4 != 3
        assert (1 + (3 * n - 1) * 4**p) // 3 == m
        assert (n, p) not in seen
        seen.add((n, p))


def test_decompose_rejects_nonpositive():
    with pytest.raises(ValueError, match="decomposition defined for m >= 1"):
        decompose_index(0)


@pytest.mark.parametrize("m,expected", [(1, F(1, 2)), (4, F(-1, 13)), (11, F(21, 32))])
def test_nonzero_alpha_examples(m, expected):
    assert nonzero_alpha(m) == expected


def test_nonzero_alpha_printed_table():
    assert [nonzero_alpha(m) for m in range(1, 37)] == NONZERO_PARAMS_36


def test_alpha_placement():
    assert alpha(0) == 0
    assert alpha(11) == F(5, 8)
    assert alpha(15) == F(-1, 13)
    for j in range(200):
        if j % 4 != 3:
            assert alpha(j) == 0


# -- offset recipe -------------------------------------------------------------


@pytest.mark.parametrize(
    "j,expected", [(43, F(21, 32)), (27, F(-1, 4)), (47, F(-1, 53)), (15, F(-1, 13))]
)
def test_offsets_examples(j, expected):
    assert alpha_from_offsets(j) == expected


def test_offsets_out_of_domain():
    for j in (3, 7, 11, 16):
        message = f"^offset recipe covers j >= 15 with j = 3 mod 4, not {j}$"
        with pytest.raises(ValueError, match=message):
            alpha_from_offsets(j)


def test_offsets_agree_with_closed_form():
    for j in range(15, 2048, 4):
        assert alpha_from_offsets(j) == alpha(j)


# -- limit values ---------------------------------------------------------------


def test_limit_families():
    family1, family2, family3 = limit_values(3)
    assert family1[0] == F(-2, 39)
    assert family2[0] == F(2, 3)
    assert family3[0] == F(-2, 9)
    assert len(family1) == len(family2) == len(family3) == 3


def test_limit_extremes():
    everything = sum(limit_values(50), ())
    assert max(everything) == F(2, 3)
    assert min(everything) == F(-2, 9)


def test_limit_approach_rate():
    # Along the class n = 1 the parameter approaches 2/3 from below at an
    # exact geometric rate.
    for p in range(11):
        m = (1 + 2 * 4**p) // 3
        value = nonzero_alpha(m)
        assert F(2, 3) - value == F(1, 6 * 4**p)


def test_parameters_inside_disk():
    values = [nonzero_alpha(m) for m in range(1, 3001)]
    assert all(abs(v) < 1 for v in values)
    assert all(F(-1, 3) <= v < F(2, 3) for v in values)
    assert max(values[:42]) == F(21, 32)
    assert min(values) == F(-1, 3)
