"""Every demo runs to completion, and the two search demos print their key
results."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

KEY_LINES = {
    "subspace_search.py": [
        "certificate: indices ((0, 1), (0, 1))",
        "certificate: indices ((0, 1), (0, 1, 2))",
        "certificate: indices ((0, 1, 2), (0, 1))",
    ],
    "werner_purification.py": [
        "  indices ((1, 2), (1, 2)): 0.800000 -> 0.852792",
        "  indices ((0, 3), (0, 3)): 0.800000 -> 0.852792",
    ],
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in KEY_LINES.get(demo.name, []):
        assert line in lines
