import json
import os
import re
import stat
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import rieszwalk
from rieszwalk.cli import main
from rieszwalk.riesz import MeasureVariant, caratheodory_series, moment
from rieszwalk.schur import (
    first_return_series,
    renewal_first_return,
    schur_from_caratheodory,
)

HADAMARD_LINE = "0.7071067811865476,0 0.7071067811865476,0 0.7071067811865476,0 -0.7071067811865476,0\n"


def child_env():
    """Environment in which a child interpreter imports this rieszwalk package.

    Without ``PYTHONUNBUFFERED`` the child's stdout is block-buffered, as it
    is for a user, so output that the process fails to flush is lost.
    """
    src = os.path.dirname(os.path.dirname(rieszwalk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def child(*args, **kwargs):
    """Run ``python *args`` in ``child_env()``, capturing what it does not redirect."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *args], stderr=subprocess.PIPE, env=child_env(), **kwargs
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rows_of(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# -- moments ------------------------------------------------------------------


def test_moments_table(capsys):
    code, out, _ = run(capsys, "moments", "--max", "20", "--variant", "mu")
    header, rows = rows_of(out)
    assert code == 0
    assert header == ["j", "moment"]
    table = {int(j): v for j, v in rows}
    assert table[4] == "1/2"
    assert table[12] == "1/4"
    assert table[20] == "1/4"
    assert len(rows) == 21


def test_moments_single_row(capsys):
    code, out, _ = run(capsys, "moments", "--max", "0")
    _, rows = rows_of(out)
    assert code == 0
    assert rows == [["0", "1"]]


def test_moments_deep_row(capsys):
    _, out, _ = run(capsys, "moments", "--max", "64")
    _, rows = rows_of(out)
    assert ["44", "1/8"] in rows


def test_moments_round_trip_exactly(capsys):
    _, out, _ = run(capsys, "moments", "--max", "64")
    _, rows = rows_of(out)
    for j, text in rows:
        value = F(text)
        assert str(value) == text


def test_moments_float_flag(capsys):
    _, out, _ = run(capsys, "moments", "--max", "4", "--float")
    _, rows = rows_of(out)
    assert rows[4] == ["4", "0.5"]


def test_moments_json(capsys):
    _, out, _ = run(capsys, "moments", "--max", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["columns"] == ["j", "moment"]
    assert payload["rows"][4] == [4, "1/2"]


# -- verblunsky ----------------------------------------------------------------


def test_verblunsky_ansatz(capsys):
    code, out, _ = run(capsys, "verblunsky", "--count", "4", "--method", "ansatz")
    _, rows = rows_of(out)
    assert code == 0
    assert rows == [["3", "1/2"], ["7", "-1/3"], ["11", "5/8"], ["15", "-1/13"]]


def test_verblunsky_nu_indexing(capsys):
    _, out, _ = run(
        capsys, "verblunsky", "--count", "3", "--method", "ansatz", "--variant", "nu"
    )
    _, rows = rows_of(out)
    assert rows == [["0", "1/2"], ["1", "-1/3"], ["2", "5/8"]]


def test_verblunsky_schur_single(capsys):
    code, out, _ = run(capsys, "verblunsky", "--count", "1", "--method", "schur")
    _, rows = rows_of(out)
    assert code == 0
    assert rows == [["3", "1/2"]]


def test_verblunsky_both_passes(capsys):
    code, out, err = run(capsys, "verblunsky", "--count", "24", "--method", "both")
    header, rows = rows_of(out)
    assert code == 0
    assert err == ""
    assert header == ["index", "alpha_ansatz", "alpha_schur", "equal"]
    assert all(row[3] == "true" for row in rows)


# -- backbone and limits ----------------------------------------------------------


def test_backbone(capsys):
    code, out, _ = run(capsys, "backbone", "--count", "17")
    _, rows = rows_of(out)
    assert code == 0
    assert rows[0] == ["1", "13"]
    assert rows[-1] == ["17", "141"]


def test_limits(capsys):
    code, out, _ = run(capsys, "limits", "--count", "1")
    header, rows = rows_of(out)
    assert code == 0
    assert header == ["family", "i", "value"]
    values = {row[2] for row in rows}
    assert "2/3" in values and "-2/9" in values


# -- walk ---------------------------------------------------------------------------


def test_walk_hadamard_one_step(capsys):
    code, out, _ = run(capsys, "walk", "--coin", "hadamard", "--steps", "1")
    header, rows = rows_of(out)
    assert code == 0
    assert header == ["site", "x_over_n", "probability"]
    assert [row[:2] for row in rows] == [["0", "0.0"], ["1", "1.0"]]
    assert all(abs(float(row[2]) - 0.5) < 1e-12 for row in rows)


def test_walk_zero_steps(capsys):
    _, out, _ = run(capsys, "walk", "--coin", "riesz", "--steps", "0")
    _, rows = rows_of(out)
    assert rows == [["0", "0.0", "1.0"]]


def test_walk_riesz_distribution(capsys):
    code, out, _ = run(capsys, "walk", "--coin", "riesz", "--steps", "40")
    _, rows = rows_of(out)
    assert code == 0
    assert len(rows) == 41
    assert abs(sum(float(r[2]) for r in rows) - 1) <= 1e-10


def test_walk_norm_trace(capsys):
    code, out, _ = run(
        capsys, "walk", "--coin", "hadamard", "--steps", "5", "--emit", "norm-trace"
    )
    header, rows = rows_of(out)
    assert code == 0
    assert header == ["step", "norm"]
    assert len(rows) == 6
    assert all(abs(float(r[1]) - 1) <= 1e-12 for r in rows)


def test_walk_matrix_dump(capsys):
    code, out, _ = run(
        capsys, "walk", "--coin", "riesz", "--steps", "0", "--emit", "matrix"
    )
    header, rows = rows_of(out)
    assert code == 0
    assert header == ["row", "col", "real", "imag"]
    assert rows[0] == ["0", "2", "1.0", "0.0"]


# -- first-return ----------------------------------------------------------------------


def test_first_return_exact(capsys):
    code, out, _ = run(
        capsys, "first-return", "--coin", "riesz", "--max", "4", "--method", "exact"
    )
    _, rows = rows_of(out)
    assert code == 0
    assert rows[3] == ["4", "1/2", "1/4"]
    assert rows[0][1:] == ["0", "0"]


def test_first_return_short_window_is_silent(capsys):
    _, out, _ = run(
        capsys, "first-return", "--coin", "riesz", "--max", "2", "--method", "exact"
    )
    _, rows = rows_of(out)
    assert all(row[1] == "0" for row in rows)


def test_first_return_numeric_hadamard(capsys):
    code, out, _ = run(
        capsys, "first-return", "--coin", "hadamard", "--max", "70", "--method", "numeric"
    )
    _, rows = rows_of(out)
    assert code == 0
    assert len(rows) == 70
    assert all(abs(float(row[1])) <= 1e-12 for row in rows if int(row[0]) % 2 == 0)
    cumulative = [float(row[2]) for row in rows]  # plain decimals, no numpy repr
    assert cumulative == sorted(cumulative) and cumulative[-1] <= 1


def test_first_return_both_passes(capsys):
    code, out, _ = run(
        capsys, "first-return", "--coin", "riesz", "--max", "40", "--method", "both"
    )
    header, rows = rows_of(out)
    assert code == 0
    assert header == ["n", "amplitude", "cumulative_probability", "discrepancy"]
    assert all(float(row[3]) <= 1e-8 for row in rows)


def exact_first_return(capsys, max_n):
    """Amplitudes and cumulative sums of ``first-return --method exact``, as Fractions."""
    code, out, _ = run(
        capsys, "first-return", "--coin", "riesz", "--max", str(max_n),
        "--method", "exact", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [n for n, _, _ in rows] == list(range(1, max_n + 1))
    return [F(a) for _, a, _ in rows], [F(c) for _, _, c in rows]


def test_first_return_exact_is_the_renewal_inversion(capsys):
    # Schur-Taylor = renewal on the route the command runs: NU's Schur
    # function spread to every fourth step, against 1 - 1/r(z) of MU's moments.
    amplitudes, cumulative = exact_first_return(capsys, 1001)
    renewal = renewal_first_return([moment(j, MeasureVariant.MU) for j in range(1002)], 1001)
    assert amplitudes == list(renewal.amplitudes)
    assert cumulative == list(renewal.cumulative)


@pytest.mark.parametrize("max_n", range(10))
def test_first_return_exact_matches_the_mu_series_route(capsys, max_n):
    amplitudes, cumulative = exact_first_return(capsys, max_n)
    F_mu = caratheodory_series(max_n + 1, MeasureVariant.MU)
    series = first_return_series(schur_from_caratheodory(F_mu), max_n)
    assert amplitudes == list(series.amplitudes)
    assert cumulative == list(series.cumulative)


def test_first_return_exact_needs_riesz(capsys):
    code, _, err = run(
        capsys, "first-return", "--coin", "hadamard", "--max", "4", "--method", "exact"
    )
    assert code == 2
    assert "exact" in err


# -- cmv dump ---------------------------------------------------------------------------


def test_cmv_dump(capsys):
    code, out, _ = run(capsys, "cmv", "--coin", "riesz", "--dim", "8")
    _, rows = rows_of(out)
    assert code == 0
    assert ["2", "3", "0.5", "0.0"] in rows
    pairs = [(int(r[0]), int(r[1])) for r in rows]
    assert pairs == sorted(pairs)


def test_cmv_json_has_integer_row_and_col_cells(capsys):
    from rieszwalk.walk import riesz_walk_matrix

    code, out, _ = run(capsys, "cmv", "--coin", "riesz", "--dim", "16", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["columns"] == ["row", "col", "real", "imag"]
    assert all(type(r) is int and type(c) is int for r, c, _, _ in payload["rows"])
    want = [[r, c, v.real, v.imag] for r, c, v in riesz_walk_matrix(16).nonzero_entries()]
    assert payload["rows"] == want


def test_cmv_hadamard_dumps_the_cmv_operator(capsys):
    from rieszwalk.cmv import build_cmv
    from rieszwalk.walk import HADAMARD_COIN, coined_walk_matrix, hadamard_alpha

    def as_rows(matrix):
        return [
            [str(r), str(c), repr(v.real), repr(v.imag)] for r, c, v in matrix.nonzero_entries()
        ]

    code, out, _ = run(capsys, "cmv", "--coin", "hadamard", "--dim", "6")
    _, rows = rows_of(out)
    assert code == 0
    assert rows == as_rows(build_cmv(hadamard_alpha(6), 6))
    assert rows != as_rows(coined_walk_matrix(HADAMARD_COIN, 6))


# -- coin files ----------------------------------------------------------------------------


def test_coin_file_matches_builtin(capsys, tmp_path):
    path = tmp_path / "coins.txt"
    path.write_text(HADAMARD_LINE * 20)
    code, out, _ = run(capsys, "walk", "--coin", f"file:{path}", "--steps", "8")
    _, file_rows = rows_of(out)
    assert code == 0
    _, builtin_out, _ = run(capsys, "walk", "--coin", "hadamard", "--steps", "8")
    _, builtin_rows = rows_of(builtin_out)
    for a, b in zip(file_rows, builtin_rows):
        assert abs(float(a[2]) - float(b[2])) <= 1e-12


@pytest.mark.parametrize(
    "content",
    [
        "0.5,0 0.5,0 0.5,0\n",             # three entries
        "1,0 0,0 0,0 2,0\n",               # not unitary
        "a,b c,d e,f g,h\n",               # not numbers
        "1,0 0,0 0;0 1,0\n",               # malformed pair
        "nan,0 0,0 0,0 1,0\n",             # not finite
        "inf,0 0,0 0,0 1,0\n",             # not finite
        "0,nan 0,0 0,0 1,0\n",             # not finite
        pytest.param(HADAMARD_LINE * 30 + "1,0 0,0 0,0 2,0\n", id="bad-line-after-used-coins"),
    ],
)
def test_malformed_coin_file(capsys, tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content * 12)
    code, out, err = run(capsys, "walk", "--coin", f"file:{path}", "--steps", "4")
    assert code == 2
    assert err
    assert out == ""


def test_exact_commands_skip_numpy():
    # dataclasses pulls in inspect, ast and dis; CSV output needs no json.
    script = """
import sys
import rieszwalk
assert not [m for m in sys.modules if m.startswith("rieszwalk.")], "submodule imported"
before = set(sys.modules)
import rieszwalk.cli
for argv in (
    ["moments", "--max", "8"],
    ["verblunsky", "--count", "4", "--method", "both"],
    ["backbone", "--count", "3"],
    ["limits", "--count", "3"],
    ["first-return", "--coin", "riesz", "--max", "8", "--method", "exact"],
):
    assert rieszwalk.cli.main(argv) == 0
assert "numpy" not in sys.modules, "numpy was imported"
added = {"dataclasses", "inspect", "json"} & (set(sys.modules) - before)
assert not added, f"imported {sorted(added)}"
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "coin, unused",
    [
        ("hadamard", ["ansatz", "riesz", "schur", "series"]),
        ("riesz", ["riesz", "schur", "series"]),
    ],
)
def test_walk_commands_skip_the_exact_modules_they_do_not_run(coin, unused):
    script = f"""
import sys
import rieszwalk.cli
assert rieszwalk.cli.main(["walk", "--coin", "{coin}", "--steps", "2"]) == 0
loaded = [m for m in {unused!r} if "rieszwalk." + m in sys.modules]
assert not loaded, f"imported {{loaded}}"
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr


def test_coin_file_too_short(capsys, tmp_path):
    # walk --steps 4 runs at dim 16, i.e. 8 sites, one coin each.
    path = tmp_path / "short.txt"
    path.write_text(HADAMARD_LINE * 3)
    code, out, err = run(capsys, "walk", "--coin", f"file:{path}", "--steps", "4")
    assert code == 2
    assert "need at least 8 coins, got 3" in err
    assert out == ""


def test_missing_coin_file(capsys, tmp_path):
    code, _, err = run(capsys, "walk", "--coin", f"file:{tmp_path}/nope", "--steps", "4")
    assert code == 2


def test_unknown_coin(capsys):
    code, _, err = run(capsys, "walk", "--coin", "penny", "--steps", "4")
    assert code == 2


def test_walk_riesz_full_figure_shape(capsys):
    code, out, _ = run(capsys, "walk", "--coin", "riesz", "--steps", "800")
    _, rows = rows_of(out)
    assert code == 0
    assert len(rows) == 801
    assert abs(sum(float(r[2]) for r in rows) - 1) <= 1e-10


# -- verification failure paths ----------------------------------------------------------------


def test_verblunsky_mismatch_exits_1(capsys, monkeypatch):
    import rieszwalk.ansatz

    real = rieszwalk.ansatz.nonzero_alpha
    monkeypatch.setattr(
        rieszwalk.ansatz,
        "nonzero_alpha",
        lambda m: F(9, 10) if m == 3 else real(m),
    )
    code, out, err = run(capsys, "verblunsky", "--count", "4", "--method", "both")
    assert code == 1
    assert "index 11" in err
    _, rows = rows_of(out)
    assert rows[2][3] == "false"


def test_first_return_discrepancy_exits_1(capsys, monkeypatch):
    import rieszwalk.walk

    real = rieszwalk.walk.first_return_numeric
    monkeypatch.setattr(
        rieszwalk.walk,
        "first_return_numeric",
        lambda m, n: real(m, n) + 1e-6,
    )
    code, _, err = run(
        capsys, "first-return", "--coin", "riesz", "--max", "8", "--method", "both"
    )
    assert code == 1
    assert "discrepancy" in err
    assert re.fullmatch(r"exact/numeric discrepancy \d\.\d{3}e-\d\d exceeds 1e-08\n", err)


# -- process-level behaviour ------------------------------------------------------------------


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["moments", "--max", "-3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["moments", "--variant", "xi", "--max", "4"])
    assert info.value.code == 2


def test_output_file_atomic_and_deterministic(tmp_path):
    target = tmp_path / "out.csv"
    argv = ["verblunsky", "--count", "12", "--output", str(target)]
    assert main(list(argv)) == 0
    first = target.read_bytes()
    assert main(list(argv)) == 0
    assert target.read_bytes() == first
    assert first.startswith(b"index,alpha\n")
    assert not list(tmp_path.glob(".rieszwalk-*"))


def test_output_file_mode_matches_plain_write(tmp_path):
    # mkstemp alone would leave 0600; the file should get what open() gives:
    # the umask's mode when new, its own mode when it already exists.
    def mode(path):
        return stat.S_IMODE(path.stat().st_mode)

    old_umask = os.umask(0o022)
    try:
        sibling = tmp_path / "plain.csv"
        target = tmp_path / "out.csv"
        argv = ["moments", "--max", "2", "--output", str(target)]
        open(sibling, "w").close()
        assert main(argv) == 0  # a new target
        assert mode(target) == mode(sibling) == 0o644
        for existing in (0o644, 0o600):
            sibling.chmod(existing)
            target.chmod(existing)
            open(sibling, "w").close()
            assert main(argv) == 0  # an existing target
            assert mode(target) == mode(sibling) == existing
    finally:
        os.umask(old_umask)


def test_unwritable_output_exits_2(capsys, tmp_path):
    # A missing parent directory fails to create the temporary file; an
    # existing directory or a link loop as the target is refused before one
    # is made.
    (tmp_path / "d").mkdir()
    os.symlink("loop", tmp_path / "loop")
    for target in (tmp_path / "missing" / "x.csv", tmp_path / "d", tmp_path / "loop"):
        code, out, err = run(capsys, "moments", "--max", "3", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write output: {target}: ")
        assert not list(tmp_path.rglob(".rieszwalk-*"))


def test_output_replaces_only_regular_files(capsys, tmp_path):
    # A FIFO is refused, as a directory is; a link keeps pointing at its
    # target, which gets the new table.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    code, out, err = run(capsys, "moments", "--max", "2", "--output", str(fifo))
    assert code == 2
    assert err.startswith(f"error: cannot write output: {fifo}: ")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    real = tmp_path / "real.csv"
    link = tmp_path / "link.csv"
    os.symlink(real, link)
    for stale in (False, True):  # a dangling link, then a link to an old file
        if stale:
            real.write_text("stale\n")
        assert main(["moments", "--max", "2", "--output", str(link)]) == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(real)
        assert real.read_text() == "j,moment\n0,1\n1,0\n2,0\n"
    assert not list(tmp_path.glob(".rieszwalk-*"))


def test_console_invocations_byte_identical(capsys, tmp_path):
    # A process's stdout and --output file hold what main writes in-process:
    # moments --max 2 fits in the 8 KiB stdout buffer, so it is all lost if
    # the process ends unflushed, and the 4000-step walk (about 100 KB) is
    # more than a pipe holds.
    target = tmp_path / "out.csv"
    for argv in (
        ["walk", "--coin", "riesz", "--steps", "12"],
        ["moments", "--max", "2"],
        ["walk", "--coin", "riesz", "--steps", "4000"],
    ):
        _, want, _ = run(capsys, *argv)
        cmd = ["-m", "rieszwalk.cli", *argv]
        printed = child(*cmd)
        written = child(*cmd, "--output", str(target))
        assert (printed.returncode, printed.stderr) == (0, b""), argv
        assert (written.returncode, written.stderr, written.stdout) == (0, b"", b""), argv
        assert printed.stdout == target.read_bytes() == want.encode(), argv


def test_process_exit_codes():
    bad = child("-m", "rieszwalk.cli", "walk", "--coin", "nope", "--steps", "2")
    assert bad.returncode == 2
    assert bad.stdout == b""
    assert bad.stderr == b"error: unknown coin 'nope'\n"
    # run() ends the process itself, with main's code, and returns nothing.
    script = """
import sys
from fractions import Fraction
import rieszwalk.ansatz
import rieszwalk.cli
real = rieszwalk.ansatz.nonzero_alpha
rieszwalk.ansatz.nonzero_alpha = lambda m: Fraction(9, 10) if m == 3 else real(m)
sys.argv = ["rieszwalk", "verblunsky", "--count", "4", "--method", "both"]
rieszwalk.cli.run()
sys.exit("run() returned")
"""
    failed = child("-c", script)
    assert failed.returncode == 1
    assert failed.stderr == b"mismatch at index 11\n"
    _, rows = rows_of(failed.stdout.decode())
    assert [row[3] for row in rows] == ["true", "true", "false", "true"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_write_exits_non_zero():
    # The table fits in the stdout buffer, so the write fails only at the
    # flush; the interpreter's exit then reports it and ends with 120.
    with open("/dev/full", "wb") as full:
        proc = child("-m", "rieszwalk.cli", "moments", "--max", "2", stdout=full)
    assert proc.returncode == 120
    assert b"No space left on device" in proc.stderr


def test_installed_script_ends_through_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"rieszwalk": "rieszwalk.cli:run"}
