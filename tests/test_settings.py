"""The repository's pytest settings report a failing hypothesis test as one
failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_is_reported_and_the_next_test_runs(tmp_path):
    # every warning is an error under these settings; hypothesis's report
    # hook for a failing test meets a DeprecationWarning of mypy_extensions,
    # which, as an error, stopped pytest with INTERNALERROR before the
    # passing test ran
    (tmp_path / "test_given.py").write_text(ONE_FAILING_ONE_PASSING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
                          "--rootdir", str(tmp_path), str(tmp_path)], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output and "1 failed, 1 passed" in output, output[-2000:]
