"""The benchmark's workloads: README commands, their sizes and their checks.

Each full size gives one invocation about 1 s on a 2-core sandbox, long
enough that the program's own work outweighs interpreter start-up and short
enough that a run of under a minute holds tens of invocations.  Size 1 is
the smallest invocation of the same command; it measures set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

VERBLUNSKY_COUNT = 1500
FIRST_RETURN_MAX = 1000
WALK_STEPS = 4000
SMALL = 1


@dataclass(frozen=True)
class Command:
    """One ``rieszwalk`` command; ``argv(size, path)`` gives its arguments.

    A command with ``to_file`` writes its table to ``path`` through the CLI's
    atomic ``--output``; the others write to stdout.
    """

    argv: Callable[[int, str], list[str]]
    size: int
    check: Callable[[str, int], None]
    to_file: bool = False


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "exact-verify": (
        Command(
            lambda n, _: ["verblunsky", "--count", str(n), "--method", "both", "--variant", "nu"],
            VERBLUNSKY_COUNT,
            checks.check_verblunsky,
        ),
    ),
    "return-crosscheck": (
        Command(
            lambda n, path: [
                "first-return", "--coin", "riesz", "--max", str(n), "--method", "both",
                "--format", "json", "--output", path,
            ],
            FIRST_RETURN_MAX,
            checks.check_first_return,
            to_file=True,
        ),
    ),
    "walk-dynamics": (
        Command(
            lambda n, _: ["walk", "--coin", "riesz", "--steps", str(n)],
            WALK_STEPS,
            checks.check_distribution,
        ),
        Command(
            lambda n, _: ["walk", "--coin", "hadamard", "--steps", str(n), "--emit", "norm-trace"],
            WALK_STEPS,
            checks.check_norm_trace,
        ),
    ),
}
