"""Quick mode of the benchmark: every gated workload runs its small query set.

Runs ``perfbench/run.py --smoke`` in a subprocess for each workload that
``BENCHMARK.json`` gates and checks only that every query succeeded and
passed its output checks.  No timing is asserted: timings on a shared
machine are too noisy for a test.  The names the benchmark's tracer wraps
are checked to exist, read from ``perfbench/tracing.py`` without running it,
since a renamed one fails only a traced run.
"""

import ast
import dataclasses
import importlib
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


def tracer_targets() -> dict[str, list[tuple[str, str, str]]]:
    """The ``FUNCTIONS`` and ``CLASSES`` lists of ``perfbench/tracing.py``:
    ``(module, attribute, span name)`` triples, read as literals."""
    with open(os.path.join(ROOT, "perfbench", "tracing.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "CLASSES")
    }


def test_every_name_the_tracer_wraps_exists():
    # The tracer replaces each function in every module namespace that holds
    # it, and each class's own __init__, the one the dataclass generated.
    targets = tracer_targets()
    assert targets["FUNCTIONS"] and targets["CLASSES"]
    for module, attr, _ in targets["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for module, attr, _ in targets["CLASSES"]:
        cls = getattr(importlib.import_module(module), attr, None)
        assert dataclasses.is_dataclass(cls), f"{module}.{attr}"
        init = vars(cls).get("__init__")
        assert init is not None and init.__qualname__ == f"{attr}.__init__", f"{module}.{attr}.__init__"
