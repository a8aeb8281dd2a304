"""Every example script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_script_exits_0(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # Each script takes a few seconds; the timeout only guards against a hang.
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
