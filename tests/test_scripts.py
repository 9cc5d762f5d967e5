"""The scripts under scripts/ run from a source checkout and report success.

They go through paths no other test drives end to end: the
``homogeneous_solver`` hook with the unpartitioned reference, the
operator-matrix oracle, and the per-level stats report.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_run_bench_text_report(mode):
    extra = ["--float"] if mode == "float" else []
    result = run_script("scripts/run_bench.py", "--degrees", "6", "--reps", "1", "--text", *extra)
    assert result.returncode == 0, result.stderr
    levels = [line for line in result.stdout.splitlines() if "level deg" in line]
    assert [line.split(":")[0].strip() for line in levels] == [
        "level deg 6", "level deg 4", "level deg 2"]
    assert all(("bits" in line) == (mode == "exact") for line in levels)
    assert "measured full" in result.stdout
