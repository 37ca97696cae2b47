"""dsskit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search-ghz2 --seed 1 --seconds 20 --trace 0

Runs from the root of a dsskit checkout.  Pins the BLAS/OpenMP thread count,
starts the workload in fresh worker processes (several set-ups, then one
measured run), and prints as its last stdout line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics.
``--smoke`` runs small inputs with one set-up, for a quick check.  Details
(tail latency, search rate, failures, environment) go to the lines before
the result and to ``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: End-to-end metrics of an untraced run, with units.
END_TO_END = {"wall_s": "s", "query_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 7
#: Whole-run deadline, under the 180 s a run may take.
DEADLINE_S = 170.0
#: BLAS/OpenMP threads.  One thread keeps timings steady on a shared machine
#: and makes the first BLAS call cheap.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = THREADS
    env["PYTHONPATH"] = SOURCE + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, workdir: str, deadline: float, extra: list[str]) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir, *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(args, workdir: str, index: int, deadline: float) -> float:
    return run_worker(args, os.path.join(workdir, f"setup{index}"), deadline, ["--setup-only"])["setup_s"]


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def summary_lines(result: dict, record_path: str) -> list[str]:
    tail = result["query_tail"]
    if "omitted" in tail:
        tail_text = f"omitted ({tail['omitted']})"
    else:
        tail_text = f"{tail['value_ms']:.3f} ms at {tail['percentile']} of {tail['samples']} queries"
    lines = [
        f"passes: {result['passes']} of {result['queries_per_pass']} queries",
        f"query_p50_ms: {result['query_p50_ms']:.3f} over {result['query_samples']} queries",
        f"query_tail_ms: {tail_text}",
        f"failed_ops: {result['failed']}/{result['attempted']}",
    ]
    if result["candidates_per_s"] is not None:
        lines.append(f"candidates_per_s: {result['candidates_per_s']:.1f}")
    lines += [f"failure: {f}" for f in result["failures"] + result["warmup_failures"]]
    lines.append(f"environment: {json.dumps(result['environment'])}")
    lines.append(f"record: {os.path.relpath(record_path, ROOT)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="small inputs and one set-up")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "dsskit", "__init__.py")):
        print(f"error: no dsskit sources under {SOURCE}; run from a dsskit checkout", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(ROOT, ".perfbench-out")
    extra_setups = 0 if args.smoke else SETUP_RUNS - 1
    try:
        # Half the extra set-ups run before the measured worker and half
        # after, so their median samples the machine across the whole run.
        setups = [setup_only(args, workdir, k, deadline) for k in range(extra_setups // 2)]
        result = run_worker(args, os.path.join(workdir, "run"), deadline,
                            ["--trace-out", os.path.join(out_dir, name + "-spans.json")])
        setups += [setup_only(args, workdir, k, deadline) for k in range(extra_setups // 2, extra_setups)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "attempted" not in result:
        print("error: warm-up failed:\n" + "\n".join(result["warmup_failures"]), file=sys.stderr)
        return 1

    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_runs_s"] = setups
    result["environment"]["commit"] = commit()
    if args.trace:
        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in tracing.LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
    correct = result["failed"] == 0 and not result.get("counter_mismatches")

    record_path = os.path.join(out_dir, name + ".json")
    os.makedirs(out_dir, exist_ok=True)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}, fh, indent=1)
    for line in summary_lines(result, record_path):
        print(line)
    if result.get("counter_mismatches"):
        print(f"work counters differ between traced passes: {result['counter_mismatches']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
