"""The repository's pytest settings report a failing property as a failure.

Under ``filterwarnings = ["error"]`` a warning raised while hypothesis
reports a falsified property would abort the whole session with an internal
error, and no later test would run.  The check runs pytest in a child
process, with a copy of ``pyproject.toml``, on one failing property and one
passing test.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_plain_passes():
    pass
'''


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout
