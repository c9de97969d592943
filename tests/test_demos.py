"""Every demo script runs to completion, each in its own empty directory (some write output
files), under ``-X dev`` with unclosed files and RuntimeWarnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmnec

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fmnec.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-W",
         "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
