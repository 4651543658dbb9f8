"""Every example script runs to completion in a fresh interpreter.

``reproduce_paper.py`` regenerates every paper table and takes about
fifteen seconds, so CI's bench-smoke job runs it instead of tier-1.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(
    path
    for path in (ROOT / "examples").glob("*.py")
    if path.name != "reproduce_paper.py"
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
