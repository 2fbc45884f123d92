from fractions import Fraction as F

import pytest

from expected_values import BACKBONE_17, COUNTS_AT_40, NONZERO_PARAMS_36
from oracles import OutOfDomain, alpha_from_offsets
from rieszwalk.ansatz import (
    IndexOutOfRange,
    alpha,
    backbone,
    backbone_constant,
    count_up_to,
    decompose_index,
    first_positive,
    limit_values,
    nonzero_alpha,
    verify_ansatz,
    weight,
    weighted_count,
)


def progression_contains(j: int, t: int) -> bool:
    """Membership in the j-th progression: t = ((-2)^j - 1)/3 + k 2^(j+1)."""
    return (t - ((-2) ** j - 1) // 3) % 2 ** (j + 1) == 0


# -- progressions and counts -------------------------------------------------


@pytest.mark.parametrize("j,expected", [(0, 2), (1, 3), (2, 1), (3, 13), (4, 5), (5, 53), (6, 21)])
def test_first_positive_examples(j, expected):
    assert first_positive(j) == expected


def test_first_positive_matches_enumeration():
    for j in range(21):
        d = first_positive(j)
        assert d >= 1 and progression_contains(j, d)
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
    with pytest.raises(IndexOutOfRange):
        weight(3)


def test_counts_at_40():
    assert [count_up_to(j, 40) for j in range(7)] == COUNTS_AT_40
    assert all(count_up_to(j, 40) == 0 for j in range(7, 30))


def test_counts_match_enumeration():
    for j in range(11):
        for n in (0, 1, 7, 40, 313, 1000):
            direct = sum(1 for t in range(1, n + 1) if progression_contains(j, t))
            assert count_up_to(j, n) == direct


def test_counts_partition_identity():
    for n in range(0, 2001, 37):
        assert sum(count_up_to(j, n) for j in range(40)) == n


def test_progressions_partition_integers():
    for t in range(-2000, 2001):
        homes = [j for j in range(31) if progression_contains(j, t)]
        assert len(homes) == 1, f"{t} lies in progressions {homes}"


# -- backbone ----------------------------------------------------------------


def test_weighted_count_examples():
    assert weighted_count(0) == 0
    assert weighted_count(1) == 40
    assert weighted_count(3) == 24


def test_backbone_list():
    assert [backbone(i) for i in range(1, 18)] == BACKBONE_17


def test_backbone_before_start():
    with pytest.raises(IndexOutOfRange):
        backbone(0)


@pytest.mark.parametrize("i,expected", [(0, 3), (1, 39), (2, 27), (3, 159), (4, 147)])
def test_backbone_constant_examples(i, expected):
    assert backbone_constant(i) == expected


# -- index decomposition and closed form --------------------------------------


@pytest.mark.parametrize("m,n,p", [(1, 1, 0), (3, 1, 1), (11, 1, 2), (2, 2, 0), (4, 4, 0)])
def test_decompose_examples(m, n, p):
    d = decompose_index(m)
    assert (d.n, d.p) == (n, p)


def test_decompose_bijection_prefix():
    seen = set()
    for m in range(1, 10_001):
        d = decompose_index(m)
        assert d.n >= 1 and d.n % 4 != 3
        assert (1 + (3 * d.n - 1) * 4**d.p) // 3 == m
        assert (d.n, d.p) not in seen
        seen.add((d.n, d.p))


def test_decompose_rejects_nonpositive():
    with pytest.raises(IndexOutOfRange):
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
    for j in (3, 7, 11):
        with pytest.raises(OutOfDomain):
            alpha_from_offsets(j)
    with pytest.raises(OutOfDomain):
        alpha_from_offsets(16)


def test_offsets_agree_with_closed_form():
    for j in range(15, 2048, 4):
        assert alpha_from_offsets(j) == alpha(j)


# -- limit values ---------------------------------------------------------------


def test_limit_families():
    fams = limit_values(3)
    assert fams.family1[0] == F(-2, 39)
    assert fams.family2[0] == F(2, 3)
    assert fams.family3[0] == F(-2, 9)
    assert len(fams.family1) == len(fams.family2) == len(fams.family3) == 3


def test_limit_extremes():
    fams = limit_values(50)
    everything = fams.family1 + fams.family2 + fams.family3
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


# -- cross-verification -----------------------------------------------------------


def test_verify_ansatz_small():
    report = verify_ansatz(40)
    assert report.ok
    assert report.checked == 40
    assert report.first_mismatch is None
