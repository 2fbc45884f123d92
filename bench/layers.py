"""Per-layer timings of one benchmark workload, taken in one fresh process.

Usage: python3 bench/layers.py --workload NAME --tmp DIR

Wraps the public functions of the ``rieszwalk`` modules in spans (name,
start, end, parent), then runs the workload's own commands through
``rieszwalk.cli.main`` at full size.  The spans therefore follow whatever
the CLI calls, and nothing is run before the workload (the ``ansatz`` caches
start cold).  ``walk.evolve`` calls of one step, and ``WalkState.norm``, are
recorded as ``walk.evolve_step``: that is the pattern ``--emit norm-trace``
makes.  A call made inside a span of the same name (a recursive call) gets no
span of its own.  Each output is then checked, untraced, as in the
end-to-end run.  Spans are kept in memory and printed as one JSON object
when the process ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from rieszwalk import ansatz, cli, cmv, riesz, schur, series, walk

import checks
import workloads

MODULES = (series, riesz, schur, ansatz, cmv, walk, cli)

# (module, attribute); the span takes the name "<module>.<attribute>".
TRACED = [
    (riesz, "caratheodory_series"),
    (schur, "extract_verblunsky"),
    (schur, "schur_from_caratheodory"),
    (schur, "first_return_series"),
    (schur, "cumulative_return_probability"),
    (ansatz, "nonzero_alpha"),
    (walk, "riesz_walk_matrix"),
    (walk, "first_return_numeric"),
    (walk, "coined_walk_matrix"),
    (walk, "position_distribution"),
    (cli, "write_table"),
]


class Tracer:
    """Spans kept in memory: (id, name, start, end, parent)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.last: dict[str, object] = {}
        self.enabled = True

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, args, kwargs):
        if not self.enabled or any(s["name"] == name for s in self._stack):
            return fn(*args, **kwargs)
        with self.span(name):
            result = fn(*args, **kwargs)
        self.last[name] = result
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def instrument(tr: Tracer) -> None:
    """Replace each traced function wherever a module holds it by name."""

    def replace(original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for module, attr in TRACED:
        original = getattr(module, attr)
        replace(original, tr.wrap(f"{module.__name__.split('.')[-1]}.{attr}", original))

    evolve = walk.evolve

    @functools.wraps(evolve)
    def traced_evolve(M, initial, steps):
        name = "walk.evolve_step" if steps == 1 else "walk.evolve"
        return tr.call(name, evolve, (M, initial, steps), {})

    replace(evolve, traced_evolve)
    walk.WalkState.norm = tr.wrap("walk.evolve_step", walk.WalkState.norm)


def run_command(tr: Tracer, cmd, tmp: str) -> tuple[list[str], int, str]:
    """One full-size command through cli.main: its argv, exit code and table."""
    path = os.path.join(tmp, "layers.out")
    argv = cmd.argv(cmd.size, path)
    with tr.span("command:" + argv[0]):
        if cmd.to_file:
            code = cli.main(argv)
        else:
            with open(path, "w") as handle, contextlib.redirect_stdout(handle):
                code = cli.main(argv)
    text = open(path).read() if code == 0 else ""
    return argv, code, text


def health(name: str, tr: Tracer, outputs: list[str]) -> dict[str, float]:
    """Health figures read from the workload's outputs and operators."""
    if name == "return-crosscheck":
        rows = json.loads(outputs[0])["rows"] if outputs[0] else []
        return {"walk.return_gap_max": max((row[3] for row in rows), default=float("nan"))}
    if name == "walk-dynamics":
        norms = [float(line.split(",")[1]) for line in outputs[1].splitlines()[1:]]
        return {
            "walk.norm_drift_max": max((abs(n - 1) for n in norms), default=float("nan")),
            "cmv.unitarity_defect": cmv.unitarity_defect(tr.last["walk.riesz_walk_matrix"]),
        }
    return {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--tmp", required=True, help="directory for output files")
    args = parser.parse_args()
    tr = Tracer()
    instrument(tr)
    with tr.span("workload:" + args.workload):
        results = [run_command(tr, cmd, args.tmp) for cmd in workloads.WORKLOADS[args.workload]]
    tr.enabled = False
    problems: list[str] = []
    for cmd, (argv, code, text) in zip(workloads.WORKLOADS[args.workload], results):
        if code != 0:
            problems.append(f"{argv} exited {code}")
            continue
        try:
            cmd.check(text, cmd.size)
        except checks.CheckFailed as exc:
            problems.append(f"{argv}: {exc}")
    outputs = [text for _, _, text in results]
    figures = health(args.workload, tr, outputs) if not problems else {}
    json.dump({"spans": tr.spans, "health": figures, "problems": problems}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
