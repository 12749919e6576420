"""The repository's pytest configuration, run on a made-up test file."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    """Warnings are errors, but the report of a failing ``@given`` test (which
    imports libcst) does not end the run: the next test still runs."""
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_given.py"], cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1], proc.stdout
