"""A catalogue of small source edits that the test suite must catch.

Each entry names one edit to a file of the package (its ``old`` text, which
occurs exactly once there, and the ``new`` text that replaces it) and the
tests expected to fail under it.  Run the catalogue, or only the mutants
named, with

    python tests/mutants.py [NAME ...]

An unknown name exits with status 2 before any mutant runs.  For each
mutant the runner copies ``src/`` and ``tests/`` to a fresh
temporary directory, with ``pyproject.toml`` for the pytest settings and
``README.md`` for the pinned README commands, applies the edit there, runs
the named tests with pytest under the ``mutants`` hypothesis profile (no
shrinking; see ``conftest.py``) and reads which of them failed.  A mutant is
killed when every named test fails; the runner lists any mutant that
survives, in whole or in part, or whose tests cannot run (pytest exits with
a usage or collection error), and then exits with status 1.  The
repository itself is never edited.  It needs only the standard library and
pytest, and tier-1 does not collect it; ``test_mutants.py`` checks that each
``old`` text still occurs exactly once, so the catalogue cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


WALK = "src/rieszwalk/walk.py"
CMV = "src/rieszwalk/cmv.py"
CLI = "src/rieszwalk/cli.py"
SCHUR = "src/rieszwalk/schur.py"
ANSATZ = "src/rieszwalk/ansatz.py"
RIESZ = "src/rieszwalk/riesz.py"
SERIES = "src/rieszwalk/series.py"

MUTANTS = (
    Mutant(
        "coined-origin-left-move-outside-matrix",
        WALK,
        "bands[2, 0] = c[0].c21",
        "bands[1, 0] = c[0].c21",
        (
            "tests/test_walk.py::test_coined_walk_matrix_matches_entry_oracle_bitwise",
            "tests/test_walk.py::test_hadamard_rows",
            "tests/test_walk.py::test_coined_walk_interior_unitarity",
            "tests/test_readme.py::test_stdout_is_pinned",
        ),
    ),
    Mutant(
        "coined-c22-shifted-by-one-coin",
        WALK,
        "[s.c22 for s in c[1:h]]",
        "[s.c22 for s in c[: h - 1]]",
        (
            "tests/test_walk.py::test_coined_walk_matrix_matches_entry_oracle_bitwise",
            "tests/test_numeric_properties.py::test_coined_walk_matrix_matches_entry_oracle_bitwise",
            "tests/test_readme.py::test_stdout_is_pinned",
        ),
    ),
    Mutant(
        # The top grows by one a step, so the second step's promise is
        # one short, and the flush lowers it further past the zeros.
        "trajectory-support-one-short",
        WALK,
        "top = min(top + 2, M.dimension)",
        "top = min(top + 1, M.dimension)",
        (
            "tests/test_walk.py::test_trajectory_matches_full_length_stepping_bitwise",
            "tests/test_walk.py::test_evolution_norm_and_support",
            "tests/test_cli.py::test_walk_norm_trace",
        ),
    ),
    Mutant(
        # The killed walk steps through trajectory's loop: from the origin
        # this edit makes the support promise 2n before step n + 1.
        "first-return-support-2n",
        WALK,
        "top = high + 1",
        "top = 0",
        (
            "tests/test_walk.py::test_first_return_matches_numpy_scalar_renewal_bitwise",
            "tests/test_walk.py::test_first_return_riesz_values",
            "tests/test_cli.py::test_first_return_both_passes",
            "tests/test_acceptance.py::test_criterion_07_first_return_oracle_triangle",
        ),
    ),
    Mutant(
        # Normal amplitudes down to 1e-200 are flushed with the debris.
        "flush-threshold-raised",
        WALK,
        "_TINY = float(np.finfo(float).tiny)",
        "_TINY = 1e-200",
        (
            "tests/test_walk.py::test_hadamard_sub_normal_front_is_flushed_without_moving_a_printed_bit",
        ),
    ),
    Mutant(
        # The entry that ends the run is flushed too.
        "flush-trims-one-past-the-run",
        WALK,
        "                break\n",
        "                v[top - 1] *= 0.0\n                break\n",
        (
            "tests/test_walk.py::test_hadamard_sub_normal_front_is_flushed_without_moving_a_printed_bit",
            "tests/test_walk.py::test_trajectory_matches_full_length_stepping_bitwise",
            "tests/test_cli.py::test_walk_norm_trace",
        ),
    ),
    Mutant(
        "first-return-origin-not-killed",
        WALK,
        "        a[n] = v[0]\n        v[0] = 0\n",
        "        a[n] = v[0]\n",
        (
            "tests/test_walk.py::test_first_return_matches_numpy_scalar_renewal_bitwise",
            "tests/test_walk.py::test_hadamard_first_returns_vanish_at_even_steps",
            "tests/test_cli.py::test_first_return_numeric_hadamard",
        ),
    ),
    Mutant(
        "light-cone-bound-one-short",
        WALK,
        "needed = (high | 1) + 2 * steps",
        "needed = (high | 1) + 2 * steps - 1",
        (
            "tests/test_walk.py::test_trajectory_is_faithful_exactly_from_the_light_cone_bound",
            "tests/test_walk.py::test_killed_walk_is_faithful_exactly_from_the_light_cone_bound",
            "tests/test_walk.py::test_first_return_needs_dimension",
            "tests/test_numeric_properties.py::test_evolve_guard_matches_scanning_rule",
        ),
    ),
    Mutant(
        # One short from an even highest index, exact from an odd one.
        "light-cone-bound-parity-dropped",
        WALK,
        "needed = (high | 1) + 2 * steps",
        "needed = high + 2 * steps",
        (
            "tests/test_walk.py::test_trajectory_is_faithful_exactly_from_the_light_cone_bound",
            "tests/test_walk.py::test_killed_walk_is_faithful_exactly_from_the_light_cone_bound",
            "tests/test_numeric_properties.py::test_evolve_guard_matches_scanning_rule",
        ),
    ),
    Mutant(
        # A sign fault in the Riesz coefficients past index 2000: beyond every
        # other Riesz operator the suite steps (dimension 1608 at most), so
        # only the exact moments through step 4000 see it.
        "riesz-alpha-sign-wrong-past-2000",
        WALK,
        "[ansatz.alpha(j) for j in range(dim)]",
        "[(-1) ** (j > 2000) * ansatz.alpha(j) for j in range(dim)]",
        (
            "tests/test_walk.py::"
            "test_riesz_walk_origin_amplitudes_are_the_exact_moments_through_4000",
        ),
    ),
    Mutant(
        "coin-unitarity-check-loosened",
        WALK,
        "if not (err <= 1e-12):",
        "if not (err <= 10):",
        (
            "tests/test_walk.py::test_non_unitary_coin_rejected",
            "tests/test_walk.py::test_coin_construction_checks_unitarity",
            "tests/test_cli.py::test_malformed_coin_file",
        ),
    ),
    Mutant(
        "residue-offset-dropped",
        CMV,
        "reached |= 1 << (t + o) % PERIOD",
        "reached |= 1 << t",
        (
            "tests/test_numeric_properties.py::test_cmv_trajectory_matches_full_length_stepping_bitwise",
            "tests/test_numeric_properties.py::test_coined_trajectory_matches_full_length_stepping_bitwise",
            "tests/test_numeric_properties.py::test_cmv_first_return_is_the_killed_walk",
            "tests/test_numeric_properties.py::test_coined_first_return_is_the_killed_walk",
            "tests/test_readme.py::test_readme_commands_run",
        ),
    ),
    Mutant(
        # Every non-zero row is planned, whatever the state's residues: the
        # extra products are zero, so only the plans themselves differ.
        "plan-ignores-state-residues",
        CMV,
        "if residues >> t & 1:",
        "if (1 << PERIOD) - 1 >> t & 1:",
        (
            "tests/test_cmv.py::test_riesz_walk_plans_take_one_row_in_eight",
            "tests/test_cmv.py::test_every_plan_matches_its_brute_force_plan",
        ),
    ),
    Mutant(
        # A sign fault beyond index 200 of the Hadamard coefficients: past the
        # conjugation and spectral-moment checks (dimensions 64 and 108), so
        # only the closed-form first returns through n = 1000 see it.
        "hadamard-alpha-sign-wrong-past-200",
        WALK,
        "(-a if j % 4 else a)",
        "(-a if j % 4 or j > 200 else a)",
        ("tests/test_walk.py::test_hadamard_first_return_matches_closed_form",),
    ),
    Mutant(
        "cli-discrepancy-gate-loosened",
        CLI,
        "if worst > DISCREPANCY_LIMIT:",
        "if worst > 1e3 * DISCREPANCY_LIMIT:",
        ("tests/test_cli.py::test_first_return_discrepancy_exits_1",),
    ),
    Mutant(
        "schur-disk-test-strict",
        SCHUR,
        "if abs(p0) >= q0:",
        "if abs(p0) > q0:",
        (
            "tests/test_schur.py::test_extract_rejects_finite_support_past_a_content_strip",
            "tests/test_schur.py::test_schur_of_point_mass_is_unimodular_constant",
        ),
    ),
    Mutant(
        "schur-content-never-stripped",
        SCHUR,
        "            if step % _CONTENT_PERIOD == _CONTENT_PERIOD - 1:\n",
        "            if False:\n",
        ("tests/test_schur.py::test_extract_strips_content_and_bounds_growth",),
    ),
    Mutant(
        "disk-point-complement-in-float",
        CMV,
        "math.sqrt((d * d - n * n) / (d * d))",
        "math.sqrt(1 - (n / d) ** 2)",
        (
            "tests/test_cmv.py::test_disk_point_matches_fraction_oracle_bitwise",
            "tests/test_cmv.py::test_build_cmv_matches_entry_oracle_bitwise",
        ),
    ),
    Mutant(
        "constructor-corner-left-unzeroed",
        CMV,
        "bands[0, :2] = bands[1, :1] = bands[3, -1:]",
        "bands[0, :2] = bands[3, -1:]",
        (
            "tests/test_cmv.py::test_junk_outside_the_matrix_is_never_read",
            "tests/test_cmv.py::test_junk_twin_matches_its_clean_twin",
            "tests/test_cmv.py::test_every_small_dimension_constructs",
        ),
    ),
    Mutant(
        "constructor-corner-right-unzeroed",
        CMV,
        "bands[3, -1:] = bands[4, -2:] = 0",
        "bands[3, -1:] = 0",
        (
            "tests/test_walk.py::test_coined_walk_matrix_matches_entry_oracle_bitwise",
            "tests/test_numeric_properties.py::test_coined_walk_matrix_matches_entry_oracle_bitwise",
            "tests/test_cmv.py::test_junk_twin_matches_its_clean_twin",
        ),
    ),
    Mutant(
        # B's update reads A's entries where B's belong and the reverse.
        # Not by swapping the loop names (d rev(A) - n B): on the pinned
        # density at block 16 that fault keeps every parameter in the disk
        # while the denominators grow to 800 000 bits, and its kill takes a
        # minute; this edit fails each test below within a second.
        "schur-transfer-update-swaps-roles",
        SCHUR,
        "[d * b - n * a for b, a in zip(B, reversed(A))]",
        "[d * b - n * a for b, a in zip(A, reversed(B))]",
        (
            "tests/test_schur.py::test_extract_agrees_with_stepping",
            "tests/test_schur.py::test_extract_agrees_with_stepping_on_positive_densities",
            "tests/test_acceptance.py::test_criterion_05_ansatz_verification_512",
            "tests/test_readme.py::test_readme_commands_run",
        ),
    ),
    Mutant(
        "schur-product-rev-swapped",
        SCHUR,
        "_unpack(xrb * xp + xra * xq,",
        "_unpack(xra * xp + xrb * xq,",
        (
            "tests/test_schur.py::test_extract_agrees_with_stepping",
            "tests/test_schur.py::test_extract_agrees_with_stepping_on_positive_densities",
            "tests/test_schur.py::test_extract_rejects_finite_support_past_a_block",
            "tests/test_acceptance.py::test_ansatz_verification_1500",
        ),
    ),
    Mutant(
        "schur-product-slot-one-byte-narrow",
        SCHUR,
        "width = (bits + 7) // 8",
        "width = (bits - 1) // 8",
        # The Riesz entries stay well under the bound, so only the generic
        # densities fill a slot; the property pins one that does.
        ("tests/test_schur.py::test_extract_agrees_with_stepping_on_positive_densities",),
    ),
    Mutant(
        # Step n reads f's order n, not n - 1.
        "first-return-offset-dropped",
        SCHUR,
        "FirstReturnSeries(f.coefficients)",
        "FirstReturnSeries(f.coefficients[1:])",
        (
            "tests/test_schur.py::test_renewal_agrees_with_schur_route",
            "tests/test_schur.py::test_first_return_values",
            "tests/test_cli.py::test_first_return_exact_is_the_renewal_inversion",
            "tests/test_acceptance.py::test_criterion_07_first_return_oracle_triangle",
        ),
    ),
    # The Schur-Taylor = renewal gates take their renewal side from the
    # oracle's long-division ``reciprocal``, so they see a reciprocal mutant
    # that reaches the Riesz series, beside the tests against ``divide``.
    Mutant(
        # U_n loses its W_n U_0 term.
        "series-division-drops-last-term",
        SERIES,
        "                if i > n:\n",
        "                if i >= n:\n",
        (
            "tests/test_series.py::test_reciprocal_geometric",
            "tests/test_series.py::test_kernel_matches_oracle_on_riesz_series",
            "tests/test_series.py::test_kernel_matches_divide_on_the_schur_start_through_order_1001",
            "tests/test_series.py::test_kernel_matches_divide_on_the_renewal_inverse_through_order_1000",
            "tests/test_schur.py::test_renewal_agrees_with_schur_route",
            "tests/test_cli.py::test_first_return_exact_is_the_renewal_inversion",
            "tests/test_acceptance.py::test_criterion_07_first_return_oracle_triangle",
        ),
    ),
    Mutant(
        # Every W_i doubles.
        "series-division-shift-one-too-far",
        SERIES,
        "_twos(w) + e * i - v))",
        "_twos(w) + e * i - v + 1))",
        (
            "tests/test_series.py::test_kernel_matches_oracle_on_riesz_series",
            "tests/test_series.py::test_kernel_matches_divide_on_the_schur_start_through_order_1001",
            "tests/test_series.py::test_kernel_matches_divide_on_the_renewal_inverse_through_order_1000",
            "tests/test_schur.py::test_renewal_agrees_with_schur_route",
            "tests/test_cli.py::test_first_return_exact_is_the_renewal_inversion",
            "tests/test_acceptance.py::test_criterion_07_first_return_oracle_triangle",
        ),
    ),
    Mutant(
        # c^i R_i is no longer an integer when v_2(d_i) / i is not one.  The
        # Riesz series have e = 1 either way, so only generated ones see it.
        "series-reciprocal-exponent-rounded-down",
        SERIES,
        "-(-_twos(d) // i)",
        "_twos(d) // i",
        (
            "tests/test_series.py::test_kernel_matches_oracle_on_generated_series",
            "tests/test_series.py::test_reciprocal_general_scale",
        ),
    ),
    Mutant(
        "series-reciprocal-scale-taken-as-one",
        SERIES,
        "        odd = math.lcm(*(d >> _twos(d) for d in dens))\n"
        "        e = max((-(-_twos(d) // i) for i, d in enumerate(dens, 1)), default=0)\n",
        "        odd, e = 1, 0\n",
        (
            "tests/test_series.py::test_kernel_matches_oracle_on_generated_series",
            "tests/test_series.py::test_reciprocal_general_scale",
            "tests/test_series.py::test_kernel_matches_divide_on_the_schur_start_through_order_1001",
            "tests/test_series.py::test_kernel_matches_divide_on_the_renewal_inverse_through_order_1000",
            "tests/test_schur.py::test_renewal_agrees_with_schur_route",
            "tests/test_cli.py::test_first_return_exact_is_the_renewal_inversion",
            "tests/test_acceptance.py::test_criterion_07_first_return_oracle_triangle",
        ),
    ),
    Mutant(
        # p and q trade places, so extract_verblunsky and the long-division
        # check of schur_from_caratheodory work on 1/f.
        "schur-start-numerator-denominator-swapped",
        SCHUR,
        "return scaled[1:], scaled[:-1]",
        "return scaled[:-1], scaled[1:]",
        (
            "tests/test_schur.py::test_extract_first_twelve",
            "tests/test_series.py::test_kernel_matches_divide_on_the_schur_start_through_order_1001",
            "tests/test_schur.py::test_extract_agrees_with_stepping",
            "tests/test_acceptance.py::test_ansatz_verification_1500",
        ),
    ),
    Mutant(
        # str() of an int over 4300 digits raises again.
        "cli-cell-past-digit-limit-unguarded",
        CLI,
        "    except ValueError:  # fractions imports decimal",
        "    except TypeError:  # fractions imports decimal",
        ("tests/test_cli.py::test_write_table_past_the_int_digit_limit",),
    ),
    Mutant(
        "cli-mismatch-reports-previous-index",
        CLI,
        "index[equal.index(False)]",
        "index[equal.index(False) - 1]",
        (
            "tests/test_cli.py::test_verblunsky_mismatch_exits_1",
            "tests/test_cli.py::test_verblunsky_mismatch_at_either_end",
            "tests/test_cli.py::test_process_exit_codes",
        ),
    ),
    Mutant(
        "cli-spread-one-step-early",
        CLI,
        "amplitudes[3::4] = nu.amplitudes",
        "amplitudes[2::4] = nu.amplitudes",
        (
            "tests/test_cli.py::test_first_return_exact_is_the_renewal_inversion",
            "tests/test_cli.py::test_first_return_exact_matches_the_mu_series_route",
            "tests/test_cli.py::test_first_return_exact",
            "tests/test_readme.py::test_readme_commands_run",
        ),
    ),
    Mutant(
        # NU's series stops one order short, so the Schur function gives one
        # amplitude fewer than the steps 4, 8, ... it fills.
        "cli-first-return-series-one-order-short",
        CLI,
        "caratheodory_series(max_n // 4, MeasureVariant.NU)",
        "caratheodory_series(max_n // 4 - 1, MeasureVariant.NU)",
        (
            "tests/test_cli.py::test_first_return_exact_is_the_renewal_inversion",
            "tests/test_cli.py::test_first_return_exact_matches_the_mu_series_route",
            "tests/test_readme.py::test_readme_commands_run",
        ),
    ),
    Mutant(
        "cli-json-imported-at-start-up",
        CLI,
        "import argparse\nimport os\n",
        "import argparse\nimport json\nimport os\n",
        ("tests/test_cli.py::test_exact_commands_skip_numpy",),
    ),
    Mutant(
        "run-skips-flush",
        CLI,
        "        sys.stdout.flush()\n        sys.stderr.flush()\n",
        "        pass\n",
        (
            "tests/test_cli.py::test_console_invocations_byte_identical",
            "tests/test_cli.py::test_process_exit_codes",
        ),
    ),
    Mutant(
        "run-exits-after-failed-flush",
        CLI,
        "    except OSError:\n        return code\n",
        "    except OSError:\n        os._exit(code)\n",
        ("tests/test_cli.py::test_failed_write_exits_non_zero",),
    ),
    Mutant(
        "mu-moment-map-dropped",
        RIESZ,
        "    if variant is MeasureVariant.MU:\n        if j % 4:\n"
        "            return Fraction(0)\n        j //= 4\n",
        "",
        (
            "tests/test_riesz.py::test_moment_examples",
            "tests/test_riesz.py::test_digits_match_brute_force",
            "tests/test_riesz.py::test_moment_variant_consistency",
            "tests/test_exact_properties.py::test_mu_moment_is_the_nu_moment_at_a_quarter_of_the_index",
        ),
    ),
    Mutant(
        # A digit 3 counts as +1: 3 = 4 - 1 reads as one power, not two.
        "moment-digit-3-carry-dropped",
        RIESZ,
        "m = (m + 1) // 4",
        "m = m // 4",
        (
            "tests/test_riesz.py::test_digits_match_brute_force",
            "tests/test_exact_properties.py::test_mu_moment_is_the_nu_moment_at_a_quarter_of_the_index",
        ),
    ),
    Mutant(
        # A digit 2 counts as a power, so 2 gets moment 1/2 instead of 0.
        "moment-digit-2-accepted",
        RIESZ,
        "        if r == 2:  # no balanced digit can absorb it\n"
        "            return Fraction(0)\n",
        "",
        (
            "tests/test_riesz.py::test_digits_match_brute_force",
            "tests/test_exact_properties.py::test_mu_moment_is_the_nu_moment_at_a_quarter_of_the_index",
        ),
    ),
    Mutant(
        # v2 one too high: every t adds the next progression's weight.
        "backbone-valuation-off-by-one",
        ANSATZ,
        "(x & -x).bit_length() - 1",
        "(x & -x).bit_length()",
        (
            "tests/test_ansatz.py::test_backbone_is_the_running_weighted_count",
            "tests/test_acceptance.py::test_criterion_04_backbone_fidelity",
        ),
    ),
    Mutant(
        # Steps over the level sets of v2(3t - 1), the progressions of -t.
        "backbone-steps-from-3t-minus-1",
        ANSATZ,
        "x = 3 * t + 1",
        "x = 3 * t - 1",
        (
            "tests/test_ansatz.py::test_backbone_is_the_running_weighted_count",
            "tests/test_acceptance.py::test_criterion_04_backbone_fidelity",
        ),
    ),
    Mutant(
        "ansatz-numerator-sign",
        ANSATZ,
        "4 * four_p - 1",
        "4 * four_p + 1",
        ("tests/test_acceptance.py::test_criterion_05_ansatz_verification_512",),
    ),
    Mutant(
        # Wrong only past m = 6000, where the Schur gates stop, and only in
        # the class n = 0 mod 4, which the limit-law checks (n = 1) skip.
        "ansatz-wrong-past-6000",
        ANSATZ,
        "backbone_constant(s) * four_p)",
        "backbone_constant(s) * four_p + (m > 6000))",
        ("tests/test_acceptance.py::test_closed_form_is_the_christoffel_route_through_20000",),
    ),
)


def _failed_tests(report: str) -> set[str]:
    """Node ids from pytest's short summary lines ``FAILED id`` and ``ERROR id``."""
    failed = set()
    for line in report.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    return failed


def run(mutant: Mutant) -> list[str]:
    """Apply ``mutant`` in a copy of the tree; return the named tests that passed."""
    with tempfile.TemporaryDirectory(prefix="rieszwalk-mutant-") as tmp:
        work = Path(tmp)
        junk = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=junk)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work)
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: old text does not occur exactly once")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE"]
        cmd += ["-p", "no:cacheprovider", "--hypothesis-profile=mutants"]
        proc = subprocess.run(
            [*cmd, *mutant.tests], cwd=work, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    if proc.returncode not in (0, 1):  # 0: all passed, 1: some failed
        tail = "\n".join(proc.stdout.splitlines()[-5:])
        raise RuntimeError(f"{mutant.name}: pytest exited with {proc.returncode}\n{tail}")
    failed = _failed_tests(proc.stdout)
    return [
        t for t in mutant.tests
        if not any(f == t or f.startswith(t + "[") for f in failed)
    ]


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    survivors = []
    for mutant in [by_name[name] for name in names] if names else MUTANTS:
        start = time.perf_counter()
        try:
            passed = run(mutant)
        except RuntimeError as exc:
            print(f"ERROR    {exc}", flush=True)
            survivors.append(mutant.name)
            continue
        verdict = "SURVIVED" if passed else "killed"
        print(f"{verdict:8} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        for test in passed:
            print(f"         passed: {test}")
        if passed:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) not killed: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
