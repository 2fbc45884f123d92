"""The mutant catalogue in ``mutants.py`` still applies to the package.

Running the catalogue is not part of this suite (``python tests/mutants.py``
takes about 80 s on two cores); these checks only keep it from rotting: each
edit's old text occurs exactly once in its file, and each named test exists.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, main


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_names_existing_tests(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {re.escape(name)}\(", source, re.M), node


def test_unknown_mutant_name_exits_2(capsys):
    assert main(["no-such-mutant"]) == 2
    assert "no-such-mutant" in capsys.readouterr().err
