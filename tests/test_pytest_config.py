"""The pytest configuration: under the warning filters of ``pyproject.toml``
a failing Hypothesis property fails as a test and reports its falsifying
example, rather than ending the pytest run in an INTERNALERROR."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_on_purpose(n):
    assert n < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_fails_on_purpose(" in out
    assert "INTERNALERROR" not in out
