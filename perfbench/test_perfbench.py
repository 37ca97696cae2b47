"""The benchmark's own tests: contract of BENCHMARK.json, output schema in
smoke mode, repeatable work counters, and the checks themselves.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def smoke(workload: str, trace: int, seed: int = 1, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.GATED) and set(names) <= set(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    all_names = names + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric_and_repeats_counters(spec, workload):
    plain = result_line(smoke(workload, 0))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] is True and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = [result_line(smoke(workload, 1)) for _ in range(2)]
    for doc in traced:
        assert doc["correct"] is True and doc["failed"] == 0
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec["per_layer"]
        }
    first, second = ({k: doc["metrics"][k]["value"] for k in tracing.WORK_COUNTERS} for doc in traced)
    assert first == second
    assert first["states.DensityMatrix.calls"] > 0


def test_refuses_to_run_without_the_program():
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = smoke("search-ghz2", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_checks_reject_wrong_outputs():
    good = {
        "candidates": 3375,
        "certificates_found": 24,
        "certificates": [
            {"classification": "pure-entangled", "signature": [2, 2, 2], "weight": 0.125,
             "rank_bound_check": {"rank": 4, "bound": 57, "satisfied": True}}
        ] * 24,
    }
    query = workloads.ghz_find("0.5", 2)
    assert query.check({"results": good}) == []
    wrong_weight = dict(good, certificates=[dict(good["certificates"][0], weight=0.126)] * 24)
    assert query.check({"results": wrong_weight})
    assert query.check({"results": dict(good, certificates_found=23)})

    fc = workloads.filter_compare("0.9", grid=None)
    form = workloads._filter_closed_form(0.9)
    report = dict(form, improved=True)
    assert fc.check({"results": report}) == []
    assert fc.check({"results": dict(report, lambda_prime=0.93)})


def test_tail_latency_needs_ten_samples_beyond():
    assert "omitted" in worker.tail_latency([0.001] * 15)
    assert worker.tail_latency([i / 1000 for i in range(200)])["percentile"] == "p90"
    assert worker.tail_latency([i / 1000 for i in range(1000)])["percentile"] == "p99"
