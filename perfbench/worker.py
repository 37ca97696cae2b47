"""One workload in one fresh process: set up, then measure closed-loop passes.

Started by ``run.py`` with the BLAS/OpenMP thread count already pinned in
the environment.  Prints one JSON object on its last stdout line.  With
``--setup-only`` it stops after set-up and reports only ``setup_s``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before numpy and dsskit are imported

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback

import numpy as np

import dsskit
import dsskit.cli

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
MAX_FAILURE_MESSAGES = 20


def run_query(query: workloads.Query) -> tuple[float, list[str]]:
    """Run one query through ``dsskit.cli.main``; return latency and problems."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dsskit.cli.main(list(query.argv))
    except Exception:  # a crash is a failed query, not the end of the run
        return time.perf_counter() - started, [traceback.format_exc(limit=3)]
    latency = time.perf_counter() - started
    return latency, check_output(query, code, out.getvalue(), err.getvalue())


def check_output(query: workloads.Query, code: int, out: str, err: str) -> list[str]:
    if code != query.exit_code:
        return [f"exit code {code}, expected {query.exit_code}: {err.strip()[:200]}"]
    text, sep, payload = out.partition("\n{\n")
    if not sep:
        return ["no JSON report on stdout"]
    try:
        problems = query.check(json.loads("{\n" + payload))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    if query.golden is not None:
        with open(query.golden, "r", encoding="utf-8") as fh:
            expected = fh.read()
        lines = [line for line in text.splitlines() if not line.startswith("elapsed ms:")]
        if "\n".join(lines) + "\n" != expected:
            problems.append(f"text report differs from {os.path.relpath(query.golden, ROOT)}")
    return problems


class Totals:
    """Latencies, failures and search work of the queries run so far."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.latencies: list[float] = []
        self.search_s = 0.0
        self.candidates = 0

    def run(self, queries: list[workloads.Query], tracer: tracing.Tracer | None, label: str) -> float:
        started = time.perf_counter()
        for i, query in enumerate(queries):
            if tracer is not None:
                tracer.query = f"{label}.{i}"
            latency, problems = run_query(query)
            self.attempted += 1
            self.latencies.append(latency)
            if query.candidates:
                self.search_s += latency
                self.candidates += query.candidates
            if problems:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_MESSAGES:
                    self.failures.append(f"{' '.join(query.argv)}: {'; '.join(problems)}")
        return time.perf_counter() - started


def tail_latency(latencies: list[float]) -> dict:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for label, q in (("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)):
        k = max(0, math.ceil(q * n) - 1)  # nearest-rank percentile
        if n - 1 - k >= 10:
            best = {"percentile": label, "value_ms": ordered[k] * 1000.0, "samples": n}
    if best is None:
        return {"omitted": f"{n} queries; p90 needs at least 100 for ten samples beyond it", "samples": n}
    return best


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "dsskit": os.path.relpath(dsskit.__file__, ROOT),
    }


def measure(queries, seconds: float, trace: bool, tracer: tracing.Tracer) -> tuple[Totals, dict]:
    """Closed loop from one client: passes run back to back until ``seconds``.

    Untraced runs need one pass.  Traced runs alternate traced and untraced
    passes, starting traced, with at least two traced passes (to compare
    their work counters) and one untraced pass (for the overhead ratio).
    A new pass starts only while the run is short of ``seconds`` by more
    than half the median pass so far.
    """
    totals = Totals()
    walls = {True: [], False: []}
    started = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 0
        if traced:
            tracer.begin_pass()
            tracer.install()
        try:
            wall = totals.run(queries, tracer if traced else None, f"p{index}")
        finally:
            tracer.uninstall()
        walls[traced].append(wall)
        index += 1
        enough = len(walls[True]) >= 2 and len(walls[False]) >= 1 if trace else True
        all_walls = walls[True] + walls[False]
        left = seconds - (time.perf_counter() - started)
        if enough and left <= statistics.median(all_walls) / 2.0:
            return totals, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    # Set-up: imports (above), input generation, and a warm-up pass over the
    # small query set, which also makes the first BLAS calls of the process.
    queries = workloads.build(args.workload, args.seed, args.workdir, GOLDEN_DIR, smoke=args.smoke)
    warmup = workloads.build(args.workload, args.seed, os.path.join(args.workdir, "warmup"),
                             GOLDEN_DIR, smoke=True)
    warm = Totals()
    warm.run(warmup, None, "warmup")
    setup_s = time.perf_counter() - STARTED
    result: dict = {"setup_s": setup_s, "warmup_failures": warm.failures}
    if args.setup_only or warm.failed:
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer()
    totals, walls = measure(queries, args.seconds, bool(args.trace), tracer)
    untraced = walls[False]
    result.update(
        attempted=totals.attempted,
        failed=totals.failed,
        failures=totals.failures,
        queries_per_pass=len(queries),
        passes=len(walls[True]) + len(untraced),
        pass_walls_s={"traced": walls[True], "untraced": untraced},
        wall_s=statistics.median(untraced) if untraced else None,
        query_p50_ms=statistics.median(totals.latencies) * 1000.0,
        query_samples=len(totals.latencies),
        query_tail=tail_latency(totals.latencies),
        candidates_per_s=totals.candidates / totals.search_s if totals.search_s else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    if args.trace:
        stats = [tracer.pass_stats(i) for i in range(len(tracer.passes))]
        layers = {}
        for name in tracing.LAYER_METRICS:
            values = [s.get(name, 0) for s in stats]
            layers[name] = int(values[0]) if name in tracing.WORK_COUNTERS else statistics.median(values)
        layers["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(untraced)
        result["layers"] = layers
        result["traced_wall_s"] = statistics.median(walls[True])
        result["counter_mismatches"] = [
            name for name in tracing.WORK_COUNTERS if len({s.get(name, 0) for s in stats}) > 1
        ]
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
