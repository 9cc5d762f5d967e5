"""The scripts under scripts/ run from a source checkout and report success.

`worked_examples.py` goes through the operator-matrix oracle end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_worked_examples_all_check_out():
    result = run_script("scripts/worked_examples.py")
    assert result.returncode == 0, result.stderr
    checks = [line for line in result.stdout.splitlines() if "checks:" in line]
    assert len(checks) == 3
    assert all("harmonic=True residual_zero=True" in line for line in checks)
