import os
import subprocess
import sys
import textwrap
from pathlib import Path

import meanfield_hmc

TESTS = Path(__file__).resolve().parent


def test_a_failing_property_test_reports_as_one_failure(tmp_path):
    # under the repository's pytest config ("error" warning filter) and
    # conftest, hypothesis's failure report must not end the session
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    src = str(Path(meanfield_hmc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "conftest", "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(TESTS)])),
        capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1
