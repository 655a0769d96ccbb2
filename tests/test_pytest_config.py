"""The suite's pytest configuration reports a failing test by name."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # A failing Hypothesis test makes Hypothesis import libcst, which warns
    # on import; filterwarnings must let that warning through, or pytest
    # ends in an INTERNALERROR (exit 3) with no FAILED line.
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert any(line.startswith("FAILED") and "test_fails" in line for line in out.splitlines()), out
    assert "INTERNALERROR" not in out
