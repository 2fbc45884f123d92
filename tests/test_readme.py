"""The README's command-line and library examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from rieszwalk.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_readme_commands_run(capsys):
    commands = [
        line for block in blocks("sh") for line in block.splitlines()
        if line.startswith("rieszwalk ")
    ]
    assert commands
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        assert capsys.readouterr().out.endswith("\n"), line


def test_readme_library_example_runs():
    (code,) = blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    alphas, ok = out.getvalue().splitlines()
    assert alphas.startswith("[Fraction(1, 2), Fraction(-1, 3)")
    assert ok == "True"
