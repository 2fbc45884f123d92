"""The README's command-line and library examples run as written.

Every README command and three further commands have their stdout pinned
by sha256, so byte identity of the CLI output is a test rather than a hand
check.  The numeric hashes are pinned for x86-64, Python 3.11.7 and numpy
2.4.6; a change that means to alter an output updates its hash here and
says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rieszwalk.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# stdout sha256 of each README command, keyed by its arguments.
README_STDOUT_SHA256 = {
    "rieszwalk moments --max 64 --variant mu":
        "120c323447e3d6ed787ccd3357d9a766e10e4d97e01861680a7522259a1c2653",
    "rieszwalk verblunsky --count 512 --method both":
        "906e4822a7fa3df0dc2ea5b36a6f6037f955284a9514c5405507838c7ce5f846",
    "rieszwalk backbone --count 17":
        "43763741155b730aa19dc2ba03054b2c029bed2febe93bed103221e1ad77ce88",
    "rieszwalk limits --count 10":
        "fb36eceb2e265168ececadea97cb45939e596967256744c855a43d7c3a6ec012",
    "rieszwalk walk --coin riesz --steps 800":
        "bd14a2c3af5d5190fe317d82dfc980e7cd4d4963bab6b1c347d30346c6167e82",
    "rieszwalk walk --coin hadamard --steps 800 --emit norm-trace":
        "af937257800600a06b2fca848a3a0a83c356a5001230ffc7987a1ef9d5d853f2",
    "rieszwalk first-return --coin riesz --max 200 --method both":
        "b0e4337e810015d36a25cf2113ff58a1474d9d38665741a8850269d4acdd7821",
    "rieszwalk first-return --coin riesz --max 1000 --method exact --float":
        "3b7d7309bca4b89228cfe4d5323731117bfe400a1b0afd221c073aa5a14a45b8",
    "rieszwalk first-return --coin hadamard --max 70 --method numeric":
        "4dbc238187ba0f3c0f8a03af1c1cce51e2f31c2284df91fb1c61cb7c63881c14",
    "rieszwalk cmv --coin riesz --dim 64":
        "457e8bb86789e64e97ebafc0e39c3420d3cf7bbdd458ae4c24ba052162cfbfe3",
}

# Five coins, one with signed-zero imaginary parts, cycled over 30 sites.
COIN_LINES = (
    "0.6,-0 0.8,0 0.8,0 -0.6,-0\n"
    "0,0.6 0.8,0 0.8,0 0,0.6\n"
    "0,1 0,0 0,0 1,0\n"
    "0.8,0 0,0.6 0,0.6 0.8,0\n"
    "0,0 1,0 -1,0 0,0\n"
)


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def stdout_of(capsys, argv):
    assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert out.endswith("\n"), argv
    return hashlib.sha256(out.encode()).hexdigest()


def test_readme_commands_run(capsys):
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks("sh") for line in block.splitlines()
        if line.startswith("rieszwalk ")
    ]
    assert commands
    for argv in commands:
        key = " ".join(["rieszwalk", *argv])
        assert key in README_STDOUT_SHA256, f"no pinned stdout hash for {key!r}"
        assert stdout_of(capsys, argv) == README_STDOUT_SHA256[key], key


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("cmv --coin hadamard --dim 64",
         "20258a0b9e69520845e5fec2e64d7ee6b90ae7b5588d3caf939b1612c572d5a0"),
        ("walk --coin hadamard --steps 800 --emit matrix",
         "d6964790112aaa82093cd5dc34ba930ea2de7221f971054963b213541f440863"),
        ("walk --coin file:{coins} --steps 21 --emit matrix",
         "fe5557d67b5a70dc23cdd257e94de6a711ffba31cce72a45ce540c1feb66165b"),
    ],
    ids=["cmv-hadamard", "walk-hadamard-matrix", "walk-coin-file-matrix"],
)
def test_stdout_is_pinned(capsys, tmp_path, argv, digest):
    coins = tmp_path / "coins.txt"
    coins.write_text(COIN_LINES * 6)
    assert stdout_of(capsys, [a.format(coins=coins) for a in argv.split()]) == digest


def test_readme_library_example_runs():
    (code,) = blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    alphas, ok = out.getvalue().splitlines()
    assert alphas.startswith("[Fraction(1, 2), Fraction(-1, 3)")
    assert ok == "True"
