"""The suite's warning filters let pytest report a failing property test.

``pyproject.toml`` turns deprecation warnings into errors.  When a
``hypothesis`` test fails, hypothesis's pytest plugin imports ``libcst``,
whose import of ``mypy_extensions.TypedDict`` raises a DeprecationWarning;
as an error it ended the run in INTERNALERROR, and the tests after the
failing one were never reported.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_ends_the_run_normally(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert done.returncode == 1
