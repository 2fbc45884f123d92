"""Command-line interface emitting deterministic CSV/JSON tables.

Exit codes: 0 success, 1 verification failure (a cross-check found a
mismatch), 2 usage or input error.  Exact rationals are printed as
num/den strings unless --float is given; floats use the shortest
round-tripping decimal.  Identical invocations produce byte-identical
output, and files are written atomically.  The numeric modules, and so
numpy, are imported only by the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import ansatz
from .riesz import MeasureVariant, caratheodory_series, moment
from .schur import (
    cumulative_return_probability,
    extract_verblunsky,
    first_return_series,
    schur_from_caratheodory,
)

if TYPE_CHECKING:
    from . import walk
    from .cmv import BandedUnitary

DISCREPANCY_LIMIT = 1e-8


class InputError(ValueError):
    """Bad input that argparse cannot catch itself; exits with code 2."""


def _csv_cell(value, use_float: bool) -> str:
    if isinstance(value, Fraction):
        return repr(float(value)) if use_float else str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # float() drops a numpy scalar type, whose repr is not a number.
        return repr(float(value))
    if isinstance(value, complex):
        return repr(value)
    return str(value)


def _json_cell(value, use_float: bool):
    if isinstance(value, Fraction):
        return float(value) if use_float else str(value)
    if isinstance(value, complex):
        return repr(value)
    return value


def write_table(columns: list[str], rows: list[list], args) -> None:
    """Render and atomically emit one table."""
    use_float = getattr(args, "float", False)
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_csv_cell(v, use_float) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "columns": columns,
            "rows": [[_json_cell(v, use_float) for v in row] for row in rows],
        }
        text = json.dumps(payload) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(args.output))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rieszwalk-")
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
            os.replace(tmp, args.output)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # An unwritable path is bad input (exit 2), not a failed cross-check.
        raise InputError(
            f"cannot write output: {args.output}: {exc.strerror or exc}"
        ) from exc


def _variant(name: str) -> MeasureVariant:
    return MeasureVariant.MU if name == "mu" else MeasureVariant.NU


def _real_or_complex(z: complex):
    return z.real if z.imag == 0 else z


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
        raise InputError(f"cannot read coin file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise InputError(f"coin file line {lineno}: expected 4 entries")
        pairs = [f.split(",") for f in fields]
        for f, parts in zip(fields, pairs):
            if len(parts) != 2:
                raise InputError(f"coin file line {lineno}: entry {f!r} is not re,im")
        try:
            coins.append(walk.CoinMatrix(*(complex(float(x), float(y)) for x, y in pairs)))
        except ValueError as exc:  # an entry is not a number, or the coin is not unitary
            raise InputError(f"coin file line {lineno}: {exc}") from exc
    if not coins:
        raise InputError("coin file contains no coins")
    return coins


def _walk_matrix(coin: str, dim: int) -> BandedUnitary:
    from . import walk

    if coin == "riesz":
        return walk.riesz_walk_matrix(dim)
    if coin == "hadamard":
        return walk.coined_walk_matrix(walk.HADAMARD_COIN, dim)
    if coin.startswith("file:"):
        coins = parse_coin_file(coin[5:])
        sites = (dim + 1) // 2
        if len(coins) < sites:
            raise InputError(f"coin file provides {len(coins)} coins, need {sites}")
        return walk.coined_walk_matrix(coins, dim)
    raise InputError(f"unknown coin {coin!r}")


def _cmv_matrix(coin: str, dim: int) -> BandedUnitary:
    from . import cmv, walk

    if coin == "hadamard":
        return cmv.build_cmv(walk.hadamard_alpha(dim), dim)
    return _walk_matrix(coin, dim)


def _write_matrix(matrix: BandedUnitary, args) -> None:
    rows = [[r, c, v.real, v.imag] for r, c, v in matrix.nonzero_entries()]
    write_table(["row", "col", "real", "imag"], rows, args)


def cmd_moments(args) -> int:
    variant = _variant(args.variant)
    rows = [[j, moment(j, variant)] for j in range(args.max + 1)]
    write_table(["j", "moment"], rows, args)
    return 0


def cmd_verblunsky(args) -> int:
    count = args.count

    def index_of(m: int) -> int:
        # m-th non-zero parameter: index 4m-1 in the sparse variant, m-1 in
        # the dense one.
        return 4 * m - 1 if args.variant == "mu" else m - 1

    if args.method == "ansatz":
        rows = [[index_of(m), ansatz.nonzero_alpha(m)] for m in range(1, count + 1)]
        write_table(["index", "alpha"], rows, args)
        return 0
    if args.method == "schur":
        G = caratheodory_series(count + 1, MeasureVariant.NU)
        schur_values = extract_verblunsky(G, count)
        rows = [[index_of(m), schur_values[m - 1]] for m in range(1, count + 1)]
        write_table(["index", "alpha"], rows, args)
        return 0
    report = ansatz.verify_ansatz(count)
    rows = [
        [index_of(m), a, s, a == s]
        for m, (a, s) in enumerate(zip(report.ansatz_values, report.schur_values), 1)
    ]
    write_table(["index", "alpha_ansatz", "alpha_schur", "equal"], rows, args)
    if not report.ok:
        print(f"mismatch at index {index_of(report.first_mismatch)}", file=sys.stderr)
        return 1
    return 0


def cmd_backbone(args) -> int:
    rows = [[i, ansatz.backbone(i)] for i in range(1, args.count + 1)]
    write_table(["i", "value"], rows, args)
    return 0


def cmd_limits(args) -> int:
    families = ansatz.limit_values(args.count)
    rows = []
    for fam, (values, start) in enumerate(
        [(families.family1, 1), (families.family2, 0), (families.family3, 0)], start=1
    ):
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
    if args.emit == "norm-trace":
        state = walk.WalkState.origin_up(dim)
        rows = [[0, state.norm()]]
        for step in range(1, steps + 1):
            state = walk.evolve(matrix, state, 1)
            rows.append([step, state.norm()])
        write_table(["step", "norm"], rows, args)
        return 0
    state = walk.evolve(matrix, walk.WalkState.origin_up(dim), steps)
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
        raise InputError("exact first-return amplitudes exist only for --coin riesz")
    exact_amplitudes = cumulative = None
    if args.method in ("exact", "both"):
        F = caratheodory_series(max_n + 1, MeasureVariant.MU)
        series = first_return_series(schur_from_caratheodory(F), max_n)
        exact_amplitudes = series.amplitudes
        cumulative = cumulative_return_probability(series)
    numeric = None
    if args.method in ("numeric", "both"):
        from . import walk

        matrix = _walk_matrix(args.coin, 2 * max_n + 8)
        numeric = walk.first_return_numeric(matrix, max_n)
    if args.method == "exact":
        rows = [
            [n, exact_amplitudes[n - 1], cumulative[n - 1]] for n in range(1, max_n + 1)
        ]
        write_table(["n", "amplitude", "cumulative_probability"], rows, args)
        return 0
    if args.method == "numeric":
        rows = []
        total = 0.0
        for n in range(1, max_n + 1):
            total += abs(numeric[n - 1]) ** 2
            rows.append([n, _real_or_complex(complex(numeric[n - 1])), total])
        write_table(["n", "amplitude", "cumulative_probability"], rows, args)
        return 0
    rows = []
    worst = 0.0
    for n in range(1, max_n + 1):
        gap = abs(complex(numeric[n - 1]) - float(exact_amplitudes[n - 1]))
        worst = max(worst, gap)
        rows.append([n, exact_amplitudes[n - 1], cumulative[n - 1], gap])
    write_table(["n", "amplitude", "cumulative_probability", "discrepancy"], rows, args)
    if worst > DISCREPANCY_LIMIT:
        print(f"exact/numeric discrepancy {worst:.3e} exceeds 1e-08", file=sys.stderr)
        return 1
    return 0


def cmd_cmv(args) -> int:
    _write_matrix(_cmv_matrix(args.coin, args.dim), args)
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


if __name__ == "__main__":
    sys.exit(main())
