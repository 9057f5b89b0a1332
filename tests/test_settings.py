"""The test settings in pyproject.toml let every test report."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_reports_and_the_next_test_runs(tmp_path):
    # Reporting a failing @given test imports libcst, which warns through
    # mypy_extensions; under the "error" filter alone that warning stopped
    # the session with INTERNALERROR before the next test ran.
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
