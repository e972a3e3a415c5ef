"""Smoke test of the benchmark harness at its smallest size.

It catches library changes that break the harness's use of the public
API; it measures nothing.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_catalog_sweep_runs_and_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
