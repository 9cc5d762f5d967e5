"""The benchmark's runner prints a well-formed result line.

``perfbench/run.py`` ends with one JSON line whose metric names must be the
ones ``BENCHMARK.json`` declares.  A short cli-verify run of each mode checks
that line, whatever breaks it: a traced function renamed away, a crash in a
problem, or a metric missing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace, names", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_run_prints_the_declared_metrics(trace, names):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-verify", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[names]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
