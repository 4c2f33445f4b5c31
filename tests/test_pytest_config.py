"""The repository's pytest settings report a failing hypothesis test as a
failure: reporting one imports libcst, whose import warns, and with every
warning an error that warning must not abort the run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).parent.parent / "pyproject.toml"


def test_a_failing_given_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout, run.stdout[-2000:]
