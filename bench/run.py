"""Benchmark of the README's ``rieszwalk`` commands.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures end to end.  A run is made of whole rounds; a round is
one pass over the workload's commands at full size and one at size 1, in an
order drawn from ``--seed``.  Each command is a fresh ``python3 -m
rieszwalk.cli`` process, started one at a time.  Rounds repeat until
``--seconds`` have passed, so the samples are spread over the whole run, and
the run reports medians over them:

* ``wall_s``: time of one full-size pass, from process start to exit;
* ``setup_s``: time of one size-1 pass;
* ``peak_rss_mb``: the largest peak resident set among a full pass's processes.

``--trace 1`` gives the per-layer figures instead.  Each round starts fresh
processes: the workload's first command at size 1 under ``python3 -X
importtime`` (import costs), and ``bench/layers.py`` once per workload (the
CLI run in-process with its library calls in spans).  The spans of all
rounds are written to ``.bench_out/`` when the run ends.

Every output is checked against ``checks.py``; an output byte-identical to
one already checked in the same run is not checked again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TIMEOUT_S = 120

LAYER_TIMES = [
    "riesz.caratheodory_series",
    "schur.extract_verblunsky",
    "ansatz.nonzero_alpha",
    "schur.schur_from_caratheodory",
    "schur.first_return_series",
    "schur.cumulative_return_probability",
    "walk.riesz_walk_matrix",
    "walk.first_return_numeric",
    "walk.coined_walk_matrix",
    "walk.evolve",
    "walk.evolve_step",
    "walk.position_distribution",
    "cli.write_table",
]
HEALTH = ["cmv.unitarity_defect", "walk.norm_drift_max", "walk.return_gap_max"]


class Runner:
    """Starts one child process at a time, timing it and checking its output."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self._checked: set[tuple] = set()

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str, str]:
        """Run ``argv`` to its end: exit code, seconds, peak RSS in MB, stdout, stderr."""
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.tmp)
            watchdog = threading.Timer(TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as out, open(err_path) as err:
            stdout, stderr = out.read(), err.read()
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            self.failures.append(f"{argv[1:]} exited {proc.returncode}: {stderr[-500:]}")
        # ru_maxrss is in KiB on Linux.
        return proc.returncode, seconds, usage.ru_maxrss / 1024, stdout, stderr

    def command(self, cmd, size: int, interpreter_flags: tuple = ()):
        """Invoke one workload command at ``size`` and check what it wrote."""
        path = os.path.join(self.tmp, "table.out")
        Path(path).unlink(missing_ok=True)
        argv = [sys.executable, *interpreter_flags, "-m", "rieszwalk.cli", *cmd.argv(size, path)]
        code, seconds, rss, stdout, stderr = self.spawn(argv)
        if code == 0:
            if cmd.to_file:
                leftovers = [n for n in os.listdir(self.tmp) if n.startswith(".rieszwalk-")]
                if leftovers:
                    self.problems.append(f"temporary files left behind: {leftovers}")
                stdout = Path(path).read_text() if os.path.exists(path) else ""
            self.check(cmd, size, stdout)
        return code, seconds, rss, stderr

    def check(self, cmd, size: int, text: str) -> None:
        key = (cmd.argv, size, hashlib.sha256(text.encode()).hexdigest())
        if key in self._checked:
            return
        try:
            cmd.check(text, size)
        except checks.CheckFailed as exc:
            self.problems.append(f"{cmd.argv(size, 'OUT')}: {exc}")
            return
        self._checked.add(key)

    def one_pass(self, commands, full: bool) -> tuple[float, float]:
        """All of a workload's commands once: total seconds and largest peak RSS."""
        total = 0.0
        peak = 0.0
        for cmd in commands:
            _, seconds, rss, _ = self.command(cmd, cmd.size if full else workloads.SMALL)
            total += seconds
            peak = max(peak, rss)
        return total, peak


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(runner: Runner, name: str, seed: int, seconds: float) -> dict:
    commands = workloads.WORKLOADS[name]
    rng = random.Random(seed)
    runner.one_pass(commands, full=False)  # untimed: writes bytecode, warms caches
    walls, setups, peaks = [], [], []
    start = time.perf_counter()
    while True:
        order = [True, False]
        rng.shuffle(order)
        for full in order:
            elapsed, peak = runner.one_pass(commands, full)
            if full:
                walls.append(elapsed)
                peaks.append(peak)
            else:
                setups.append(elapsed)
        if time.perf_counter() - start >= seconds:
            break
    print(
        f"{name}: {len(walls)} rounds; per-pass quartile spread "
        f"wall_s {quartile_spread(walls):.3f}, setup_s {quartile_spread(setups):.3f}",
        file=sys.stderr,
    )
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
    }


def import_times(stderr: str) -> tuple[float, float]:
    """numpy's import time, and every other import after ``site``, from -X importtime.

    Interpreter start-up imports up to and including ``site`` are left out.
    numpy counts 0 when the command never imports it.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, module = line[len("import time:") :].split("|")
        depth = len(module) - len(module.lstrip())
        entries.append((depth, module.strip(), int(cumulative)))
    top = min(depth for depth, _, _ in entries)
    site = next(i for i, (d, m, _) in enumerate(entries) if d == top and m == "site")
    numpy_us = next((us for _, m, us in entries if m == "numpy"), 0)
    after_site = sum(us for d, _, us in entries[site + 1 :] if d == top)
    return numpy_us / 1e6, (after_site - numpy_us) / 1e6


def layer_figures(report: dict) -> dict[str, float]:
    """Seconds per layer from one layers.py process: the sum of its spans."""
    figures: dict[str, float] = {}
    for s in report["spans"]:
        if s["parent"] is not None and not s["name"].startswith("command:"):
            figures[s["name"]] = figures.get(s["name"], 0.0) + s["end"] - s["start"]
    return figures


def traced(runner: Runner, name: str, seed: int, seconds: float) -> dict:
    """Per-layer medians over rounds of fresh processes.

    A round times the imports of the workload's first command, then runs
    ``layers.py`` once for this workload and once for each other workload,
    each in a fresh process.  A metric comes from this workload's own process
    when its commands reach that layer; otherwise from the workload that
    does, and stderr names it.
    """
    first = workloads.WORKLOADS[name][0]
    order = [name] + [w for w in workloads.WORKLOADS if w != name]
    samples: dict[str, dict[str, list[float]]] = {w: {} for w in order}
    reports = []
    start = time.perf_counter()
    while True:
        code, _, _, stderr = runner.command(first, workloads.SMALL, ("-X", "importtime"))
        if code == 0:
            numpy_s, cli_s = import_times(stderr)
            samples[name].setdefault("numpy.import_s", []).append(numpy_s)
            samples[name].setdefault("cli.import_s", []).append(cli_s)
        for workload in order:
            argv = [sys.executable, str(BENCH / "layers.py"), "--workload", workload]
            code, _, _, stdout, _ = runner.spawn(argv + ["--tmp", runner.tmp])
            if code != 0:
                continue
            report = json.loads(stdout)
            reports.append(dict(report, workload=workload))
            runner.problems.extend(report["problems"])
            figures = {layer + "_s": value for layer, value in layer_figures(report).items()}
            for metric, value in {**figures, **report["health"]}.items():
                samples[workload].setdefault(metric, []).append(value)
        if time.perf_counter() - start >= seconds:
            break
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(reports))
    metrics = {}
    borrowed = []
    for metric in ["numpy.import_s", "cli.import_s"] + [n + "_s" for n in LAYER_TIMES] + HEALTH:
        source = next((w for w in order if metric in samples[w]), None)
        if source is None:
            runner.problems.append(f"no value for {metric}")
            continue
        if source != name:
            borrowed.append(f"{metric} ({source})")
        unit = "s" if metric.endswith("_s") else "1"
        metrics[metric] = {"value": statistics.median(samples[source][metric]), "unit": unit}
    if borrowed:
        print(f"{name} never reaches, so measured on: {', '.join(borrowed)}", file=sys.stderr)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the rieszwalk commands")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "rieszwalk" / "cli.py").is_file():
        print(f"error: no rieszwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT, prefix="run-")
    try:
        runner = Runner(tmp)
        measure = traced if args.trace else end_to_end
        metrics = measure(runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in runner.failures + runner.problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
