"""The scripts under scripts/ run from a source checkout and report success.

`worked_examples.py` goes through the operator-matrix oracle end to end.
`run_bench.py` gets a smoke test of its timed sweep; the per-level report
it prints is checked in tests/test_cli.py through `quadharm bench --time`.
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
    result = run_script("scripts/run_bench.py", "--degrees", "6", "--reps", "1", *extra)
    assert result.returncode == 0, result.stderr
    assert all(s in result.stdout for s in ("level deg 6", "measured full", "total wall time"))


def test_run_bench_rejects_reps_below_one():
    result = run_script("scripts/run_bench.py", "--reps", "0")
    assert (result.returncode, result.stdout) == (2, "")
    assert "--reps must be at least 1" in result.stderr and "Traceback" not in result.stderr
