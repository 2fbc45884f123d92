"""Command-line interface emitting deterministic CSV/JSON tables.

Exit codes: 0 success, 1 verification failure (a cross-check found a
mismatch), 2 usage or input error.  The library signals bad input with
``ValueError``, reading a series past its valid order raises
``IndexError`` and assigning to a frozen record raises
``AttributeError``, while ``main`` prints a ``ValueError`` as
``error: <message>`` and exits 2.  Exact rationals are printed as num/den
strings unless --float is given; floats use the shortest round-tripping
decimal.
Identical invocations produce byte-identical output, and files are
written atomically.  Throughout the package, a module imports another
package module, or ``json``, at its top only when every use of the
module needs it, and otherwise inside the function that uses it: a
command loads only the code it runs, and the exact commands never load
numpy.  Those imports run at call time, so each name is read from its
module when the command runs.

A process (``python -m rieszwalk.cli`` or the installed ``rieszwalk``
script) runs through ``run``, which sets OpenBLAS to one thread before
numpy loads, flushes stdout and stderr and skips the interpreter's
teardown (tens of milliseconds with numpy loaded); a failed flush still
exits non-zero.  ``main`` returns its exit code and leaves the
interpreter running, for tests and other in-process callers.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from . import walk
    from .cmv import BandedUnitary

DISCREPANCY_LIMIT = 1e-8


def _fraction_str(value: Fraction) -> str:
    """str(value), also for integers past the interpreter's 4300-digit limit."""
    try:
        return str(value)
    except ValueError:  # fractions imports decimal, whose str has no such limit
        from decimal import Decimal

        n, d = (str(Decimal(x)) for x in value.as_integer_ratio())
        return n if d == "1" else f"{n}/{d}"


def _csv_cell(value, use_float: bool) -> str:
    if isinstance(value, Fraction):
        return repr(float(value)) if use_float else _fraction_str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_cell(value, use_float: bool):
    if isinstance(value, Fraction):
        return float(value) if use_float else _fraction_str(value)
    if isinstance(value, complex):
        return repr(value)
    return value


def write_table(columns: list[str], rows: list[list], args) -> None:
    """Render and atomically emit one table."""
    use_float = args.float
    if args.format == "csv":
        lines = [",".join(columns)]
        # _csv_cell differs from str only for a Fraction or a bool, and
        # type() keeps a bool, an int subclass, off the str path.
        lines.extend(
            ",".join(
                [str(v) if type(v) in (int, float) else _csv_cell(v, use_float) for v in row]
            )
            for row in rows
        )
        text = "\n".join(lines) + "\n"
    else:
        import json

        payload = {
            "columns": columns,
            "rows": [[_json_cell(v, use_float) for v in row] for row in rows],
        }
        text = json.dumps(payload) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
        return
    # Replace what a link points at, so that the link survives.
    target = os.path.realpath(args.output)
    try:
        # As open(path, "w"): keep an existing target's mode, else the umask's.
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            # A rename would put a file where a FIFO, device or directory was.
            if not stat.S_ISREG(mode):
                raise OSError("not a regular file")
            mode = stat.S_IMODE(mode)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".rieszwalk-")
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
            os.chmod(tmp, mode)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # An unwritable path is bad input (exit 2), not a failed cross-check.
        raise ValueError(
            f"cannot write output: {args.output}: {exc.strerror or exc}"
        ) from exc


def parse_coin_file(path: str) -> list[walk.CoinMatrix]:
    """One coin per non-empty line: "re,im re,im re,im re,im" for c11 c12 c21 c22.

    Every line becomes a ``walk.CoinMatrix``, which rejects a non-unitary or
    non-finite coin, so every line is checked, used by the walk or not.
    """
    from . import walk

    coins = []
    try:
        with open(path, "r") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read coin file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"coin file line {lineno}: expected 4 entries")
        pairs = [f.split(",") for f in fields]
        for f, parts in zip(fields, pairs):
            if len(parts) != 2:
                raise ValueError(f"coin file line {lineno}: entry {f!r} is not re,im")
        try:
            coins.append(walk.CoinMatrix(*(complex(float(x), float(y)) for x, y in pairs)))
        except ValueError as exc:  # an entry is not a number, or the coin is not unitary
            raise ValueError(f"coin file line {lineno}: {exc}") from exc
    if not coins:
        raise ValueError("coin file contains no coins")
    return coins


def _walk_matrix(coin: str, dim: int) -> BandedUnitary:
    from . import walk

    if coin == "riesz":
        return walk.riesz_walk_matrix(dim)
    if coin == "hadamard":
        return walk.coined_walk_matrix(walk.HADAMARD_COIN, dim)
    if coin.startswith("file:"):
        return walk.coined_walk_matrix(parse_coin_file(coin[5:]), dim)
    raise ValueError(f"unknown coin {coin!r}")


def _write_matrix(matrix: BandedUnitary, args) -> None:
    rows = [[r, c, v.real, v.imag] for r, c, v in matrix.nonzero_entries()]
    write_table(["row", "col", "real", "imag"], rows, args)


def cmd_moments(args) -> int:
    from .riesz import MeasureVariant, moment

    variant = MeasureVariant(args.variant)
    rows = [[j, moment(j, variant)] for j in range(args.max + 1)]
    write_table(["j", "moment"], rows, args)
    return 0


def cmd_verblunsky(args) -> int:
    count = args.count
    # The m-th non-zero parameter sits at index 4m - 1 in the sparse variant
    # and at m - 1 in the dense one.
    index = range(3, 4 * count, 4) if args.variant == "mu" else range(count)
    values = []
    if args.method != "schur":
        from . import ansatz

        values.append([ansatz.nonzero_alpha(m) for m in range(1, count + 1)])
    if args.method != "ansatz":
        from .riesz import MeasureVariant, caratheodory_series
        from .schur import extract_verblunsky

        # On the dense variant one extraction step gives one non-zero
        # parameter: four times cheaper than the sparse variant.
        G = caratheodory_series(count + 1, MeasureVariant.NU)
        values.append(extract_verblunsky(G, count))
    if args.method != "both":
        write_table(["index", "alpha"], [list(row) for row in zip(index, *values)], args)
        return 0
    equal = [a == s for a, s in zip(*values)]
    rows = [list(row) for row in zip(index, *values, equal)]
    write_table(["index", "alpha_ansatz", "alpha_schur", "equal"], rows, args)
    if False in equal:
        print(f"mismatch at index {index[equal.index(False)]}", file=sys.stderr)
        return 1
    return 0


def cmd_backbone(args) -> int:
    from . import ansatz

    rows = [[i, ansatz.backbone(i)] for i in range(1, args.count + 1)]
    write_table(["i", "value"], rows, args)
    return 0


def cmd_limits(args) -> int:
    from . import ansatz

    rows = []
    families = zip((1, 0, 0), ansatz.limit_values(args.count))
    for fam, (start, values) in enumerate(families, start=1):
        rows.extend([fam, start + k, v] for k, v in enumerate(values))
    write_table(["family", "i", "value"], rows, args)
    return 0


def cmd_walk(args) -> int:
    from . import walk

    steps = args.steps
    dim = 2 * steps + 8
    matrix = _walk_matrix(args.coin, dim)
    if args.emit == "matrix":
        _write_matrix(matrix, args)
        return 0
    origin = walk.WalkState.origin_up(dim)
    if args.emit == "norm-trace":
        rows = [[0, origin.norm()]]
        # Only the norms are kept: 4001 states at dim 8008 would take 0.5 GB.
        rows.extend(
            [step, state.norm()]
            for step, state in enumerate(walk.trajectory(matrix, origin, steps), 1)
        )
        write_table(["step", "norm"], rows, args)
        return 0
    state = walk.evolve(matrix, origin, steps)
    dist = walk.position_distribution(state)
    rows = []
    for site in range(steps + 1):
        x = site / steps if steps else 0.0
        rows.append([site, x, float(dist.probabilities[site])])
    write_table(["site", "x_over_n", "probability"], rows, args)
    return 0


def cmd_first_return(args) -> int:
    max_n = args.max
    if args.method in ("exact", "both") and args.coin != "riesz":
        raise ValueError("exact first-return amplitudes exist only for --coin riesz")
    if args.method != "numeric":
        from .riesz import MeasureVariant, caratheodory_series
        from .schur import (
            cumulative_return_probability,
            first_return_series,
            schur_from_caratheodory,
        )

        # f_MU(z) = z^3 f_NU(z^4): the walk first returns only at steps
        # n = 4k, with NU's step-k amplitude, so the partial sum through
        # step 4k holds through step 4k + 3.  F through order K = max_n // 4
        # gives f through order K - 1, which is NU's steps 1..K.
        F = caratheodory_series(max_n // 4, MeasureVariant.NU)
        nu = first_return_series(schur_from_caratheodory(F))
        amplitudes = [Fraction(0)] * max_n
        amplitudes[3::4] = nu.amplitudes  # step 4k sits at index 4k - 1
        held = [c for c in cumulative_return_probability(nu) for _ in range(4)]
        cumulative = ([Fraction(0)] * 3 + held)[:max_n]
    if args.method != "exact":
        from . import walk

        matrix = _walk_matrix(args.coin, 2 * max_n + 8)
        numeric = walk.first_return_numeric(matrix, max_n)
    if args.method == "numeric":
        amplitudes = [z.real if z.imag == 0 else z for z in map(complex, numeric)]
        cumulative = accumulate(abs(a) ** 2 for a in numeric.tolist())
    columns = ["n", "amplitude", "cumulative_probability"]
    table = [range(1, max_n + 1), amplitudes, cumulative]
    worst = 0.0
    if args.method == "both":
        gaps = [abs(complex(x) - float(a)) for x, a in zip(numeric, amplitudes)]
        worst = max([worst, *gaps])
        columns.append("discrepancy")
        table.append(gaps)
    write_table(columns, [list(row) for row in zip(*table)], args)
    if worst > DISCREPANCY_LIMIT:
        message = f"exact/numeric discrepancy {worst:.3e} exceeds {DISCREPANCY_LIMIT:.0e}"
        print(message, file=sys.stderr)
        return 1
    return 0


def cmd_cmv(args) -> int:
    if args.coin == "hadamard":
        # The Hadamard walk's own CMV operator, not its coined matrix.
        from . import cmv, walk

        matrix = cmv.build_cmv(walk.hadamard_alpha(args.dim))
    else:
        matrix = _walk_matrix(args.coin, args.dim)
    _write_matrix(matrix, args)
    return 0


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default="-", help="output path, - for stdout")
    p.add_argument(
        "--float", action="store_true", help="emit rationals as decimals instead"
    )


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszwalk",
        description="Exact and numeric data for the Riesz-measure quantum walk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact measure moments")
    p.add_argument("--max", type=_nonnegative, required=True)
    p.add_argument("--variant", choices=["mu", "nu"], default="mu")
    _add_output_options(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verblunsky", help="non-zero Verblunsky parameters")
    p.add_argument("--count", type=_nonnegative, required=True)
    p.add_argument("--method", choices=["schur", "ansatz", "both"], default="ansatz")
    p.add_argument("--variant", choices=["mu", "nu"], default="mu")
    _add_output_options(p)
    p.set_defaults(func=cmd_verblunsky)

    p = sub.add_parser("backbone", help="backbone anchor integers")
    p.add_argument("--count", type=_nonnegative, required=True)
    _add_output_options(p)
    p.set_defaults(func=cmd_backbone)

    p = sub.add_parser("limits", help="limit-value families")
    p.add_argument("--count", type=_nonnegative, required=True)
    _add_output_options(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("walk", help="evolve from the origin and emit data")
    p.add_argument("--coin", required=True, help="riesz, hadamard, or file:PATH")
    p.add_argument("--steps", type=_nonnegative, required=True)
    p.add_argument(
        "--emit", choices=["distribution", "norm-trace", "matrix"],
        default="distribution",
    )
    _add_output_options(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("first-return", help="first-return amplitude table")
    p.add_argument("--coin", required=True, help="riesz, hadamard, or file:PATH")
    p.add_argument("--max", type=_nonnegative, required=True)
    p.add_argument("--method", choices=["exact", "numeric", "both"], default="numeric")
    _add_output_options(p)
    p.set_defaults(func=cmd_first_return)

    p = sub.add_parser("cmv", help="dump the evolution operator")
    p.add_argument("--coin", required=True, help="riesz, hadamard, or file:PATH")
    p.add_argument("--dim", type=int, required=True)
    _add_output_options(p)
    p.set_defaults(func=cmd_cmv)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Run ``main`` as a whole process; end it through ``os._exit`` once flushed.

    If a flush fails (stdout on a full device), the code is returned instead,
    so that the interpreter's own exit reports the failure and ends the
    process non-zero.  An exception or ``SystemExit`` out of ``main`` passes
    through unchanged.  OpenBLAS, loaded with numpy, runs on one thread
    whatever the caller's ``OPENBLAS_NUM_THREADS``: a threaded dot product
    rounds differently, and a norm trace's bytes would depend on it.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
