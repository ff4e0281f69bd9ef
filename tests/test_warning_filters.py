"""The pytest settings of pyproject.toml, run on a throwaway test file."""
import shutil
import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test():
    pass
'''


def test_a_failing_property_fails_one_test_and_the_session_goes_on(tmp_path):
    shutil.copy(_PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_two.py").write_text(_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output
