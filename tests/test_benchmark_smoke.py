"""Quick mode of the benchmark: every gated workload runs its small query set.

Runs ``perfbench/run.py --smoke`` in a subprocess for each workload that
``BENCHMARK.json`` gates and checks only that every query succeeded and
passed its output checks.  No timing is asserted: timings on a shared
machine are too noisy for a test.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    GATED = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("workload", GATED)
def test_benchmark_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
