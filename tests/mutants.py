"""A catalogue of small source edits that the test suite must catch.

Each entry names one edit to a file of the package (its ``old`` text, which
occurs exactly once there, and the ``new`` text that replaces it) and the
tests expected to fail under it.  Run the catalogue with

    python tests/mutants.py

For each mutant the runner copies ``src/`` and ``tests/`` to a fresh
temporary directory, with ``pyproject.toml`` for the pytest settings and
``README.md`` for the pinned README commands, applies the edit there, runs
the named tests with pytest and reads which of them failed.  A mutant is
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
SCHUR = "src/rieszwalk/schur.py"
ANSATZ = "src/rieszwalk/ansatz.py"

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
        "trajectory-support-one-short",
        WALK,
        "support=high + 2 * step - 1)",
        "support=high + 2 * step - 2)",
        (
            "tests/test_walk.py::test_trajectory_matches_full_length_stepping_bitwise",
            "tests/test_walk.py::test_evolution_norm_and_support",
            "tests/test_cli.py::test_walk_norm_trace",
        ),
    ),
    Mutant(
        "first-return-support-2n",
        WALK,
        "support=2 * n + 1)",
        "support=2 * n)",
        (
            "tests/test_walk.py::test_first_return_matches_numpy_scalar_renewal_bitwise",
            "tests/test_walk.py::test_first_return_riesz_values",
            "tests/test_cli.py::test_first_return_both_passes",
            "tests/test_acceptance.py::test_criterion_07_first_return_oracle_triangle",
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
        "        if step % _CONTENT_PERIOD == _CONTENT_PERIOD - 1:\n",
        "        if False:\n",
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
        "ansatz-numerator-sign",
        ANSATZ,
        "4 * four_p - 1",
        "4 * four_p + 1",
        ("tests/test_acceptance.py::test_criterion_05_ansatz_verification_512",),
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
        cmd += ["-p", "no:cacheprovider"]
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


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
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
    sys.exit(main())
