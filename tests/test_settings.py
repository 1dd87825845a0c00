"""The pytest settings in pyproject.toml: warnings are errors, and a
failing property test still lets every later test run and report."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_pytest(tmp_path, source):
    """Summary line and output of pytest, under the repository's settings,
    on a test module holding source."""
    (tmp_path / "test_child.py").write_text(textwrap.dedent(source), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_child.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = proc.stdout + proc.stderr
    return output.strip().splitlines()[-1], output


def test_failing_property_test_hides_no_later_test(tmp_path):
    summary, output = run_pytest(tmp_path, """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in summary, output


def test_warning_still_fails_its_test(tmp_path):
    summary, output = run_pytest(tmp_path, """
        import warnings

        def test_warns():
            warnings.warn("stale call", DeprecationWarning)
    """)
    assert "1 failed" in summary and "passed" not in summary, output
