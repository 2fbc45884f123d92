"""Tests of the benchmark's output checks.

Run with ``python3 -m pytest bench``.  Each checker must accept a real output
of the command it checks and refuse the same output with one value altered.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from rieszwalk import cli, schur, walk  # noqa: E402
from rieszwalk.riesz import MeasureVariant, caratheodory_series, moment  # noqa: E402

COUNT, MAX_N, STEPS = 200, 120, 300


def run_cli(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def alter_csv(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    assert cells[column] != value
    cells[column] = value
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.fixture
def verblunsky(capsys) -> str:
    return run_cli(
        capsys, "verblunsky", "--count", str(COUNT), "--method", "both", "--variant", "nu"
    )


@pytest.fixture
def first_return(tmp_path) -> str:
    path = tmp_path / "fr.json"
    assert cli.main([
        "first-return", "--coin", "riesz", "--max", str(MAX_N), "--method", "both",
        "--format", "json", "--output", str(path),
    ]) == 0
    return path.read_text()


@pytest.fixture
def distribution(capsys) -> str:
    return run_cli(capsys, "walk", "--coin", "riesz", "--steps", str(STEPS))


@pytest.fixture
def norm_trace(capsys) -> str:
    return run_cli(
        capsys, "walk", "--coin", "hadamard", "--steps", str(STEPS), "--emit", "norm-trace"
    )


def test_real_outputs_pass(verblunsky, first_return, distribution, norm_trace):
    checks.check_verblunsky(verblunsky, COUNT)
    checks.check_first_return(first_return, MAX_N)
    checks.check_distribution(distribution, STEPS)
    checks.check_norm_trace(norm_trace, STEPS)


@pytest.mark.parametrize("column", [1, 2])
def test_altered_coefficient_fails(verblunsky, column):
    cell = verblunsky.splitlines()[100].split(",")[column]
    value = Fraction(cell)
    altered = Fraction(value.numerator + 1, value.denominator)
    with pytest.raises(checks.CheckFailed, match="Schur mod p"):
        checks.check_verblunsky(alter_csv(verblunsky, 100, column, str(altered)), COUNT)


def test_coefficient_with_denominator_zero_mod_p_fails(verblunsky):
    text = alter_csv(verblunsky, 5, 2, f"1/{checks.PRIMES[1]}")
    with pytest.raises(checks.CheckFailed, match="is 0 mod"):
        checks.check_verblunsky(text, COUNT)


def test_schur_denominator_zero_mod_p_raises():
    with pytest.raises(checks.CheckFailed, match="denominator is 0 mod 3"):
        checks.schur_alphas_mod_p(50, (3,))


def test_altered_amplitude_fails(first_return):
    table = json.loads(first_return)
    row = next(r for r in table["rows"] if Fraction(r[1]) != 0 and r[0] > 50)
    value = Fraction(row[1])
    row[1] = str(value + Fraction(1, value.denominator))
    with pytest.raises(checks.CheckFailed, match="renewal mod p"):
        checks.check_first_return(json.dumps(table), MAX_N)


def test_altered_probability_fails(distribution):
    cell = distribution.splitlines()[11].split(",")[2]
    text = alter_csv(distribution, 11, 2, repr(float(cell) + 1e-8))
    with pytest.raises(checks.CheckFailed, match="CMV factorisation"):
        checks.check_distribution(text, STEPS)


def test_altered_norm_fails(norm_trace):
    cell = norm_trace.splitlines()[200].split(",")[1]
    text = alter_csv(norm_trace, 200, 1, repr(float(cell) + 1e-10))
    with pytest.raises(checks.CheckFailed, match="drifts"):
        checks.check_norm_trace(text, STEPS)


def test_references_agree_with_the_library():
    """The modular and CMV references reproduce the package's exact results."""
    G = caratheodory_series(COUNT + 1, MeasureVariant.NU)
    exact = schur.extract_verblunsky(G, COUNT)
    ref = checks.schur_alphas_mod_p(COUNT)
    assert [checks.residues(a, "alpha") for a in exact] == ref.T.tolist()

    renewal = schur.renewal_first_return(
        [moment(j, MeasureVariant.MU) for j in range(MAX_N + 1)], MAX_N
    )
    ref = checks.first_return_mod_p(MAX_N)
    assert [checks.residues(a, "amp") for a in renewal.amplitudes] == ref.T.tolist()

    dim = 2 * STEPS + 8
    state = walk.evolve(walk.riesz_walk_matrix(dim), walk.WalkState.origin_up(dim), STEPS)
    probs = walk.position_distribution(state).probabilities
    assert np.max(np.abs(probs - checks.riesz_distribution(STEPS))) <= 1e-12
