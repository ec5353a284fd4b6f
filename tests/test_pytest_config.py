"""The repository's pytest configuration reports a failing property test as a failure.

A failing hypothesis test makes hypothesis's pytest plugin import more
modules to explain the example; a warning raised by one of those imports
must not turn into an internal error that ends the whole run.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = textwrap.dedent(
    """
    from hypothesis import given, settings, strategies as st

    @settings(database=None, derandomize=True)
    @given(st.integers(0, 10))
    def test_fails(x):
        assert x < 5

    def test_runs_after_the_failure():
        pass
    """
)


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_property.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
