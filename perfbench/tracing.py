"""Spans and work counters recorded from wrappers around dsskit's public layers.

The package itself is not edited.  :meth:`Tracer.install` replaces each
traced function in every ``dsskit`` module namespace that holds it, and
wraps the validating constructors of ``DensityMatrix`` and ``PureState`` at
class level; :meth:`Tracer.uninstall` puts the originals back.  A span is
``(name, start, end, parent, query)``; spans are kept in memory per pass and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  Every ``fileio.read_*`` shares one span
#: name; nested reads (``read_state`` calling ``read_json``) count once.
FUNCTIONS = [
    ("dsskit.cli", "main", "cli.main"),
    ("dsskit.subspaces", "find_dss", "subspaces.find_dss"),
    ("dsskit.subspaces", "project", "subspaces.project"),
    ("dsskit.subspaces", "check_rank_bound", "subspaces.check_rank_bound"),
    ("dsskit.subspaces", "check_certificate", "subspaces.check_certificate"),
    ("dsskit.states", "tensor_power", "states.tensor_power"),
    ("dsskit.entanglement", "dimension_signature", "entanglement.dimension_signature"),
    ("dsskit.entanglement", "concurrence", "entanglement.concurrence"),
    ("dsskit.linalg", "numerical_rank", "linalg.numerical_rank"),
    ("dsskit.linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("dsskit.localops", "apply", "localops.apply"),
    ("dsskit.protocols", "run", "protocols.run"),
    ("dsskit.fileio", "read_json", "fileio.read"),
    ("dsskit.fileio", "read_state", "fileio.read"),
    ("dsskit.fileio", "read_subspace", "fileio.read"),
    ("dsskit.fileio", "read_operator", "fileio.read"),
    ("dsskit.fileio", "read_protocol", "fileio.read"),
]

#: Classes whose ``__init__`` (which runs the validating ``__post_init__``) is wrapped.
CLASSES = [
    ("dsskit.states", "DensityMatrix", "states.DensityMatrix"),
    ("dsskit.states", "PureState", "states.PureState"),
]

#: Per-layer metrics of the traced run, with units.  Counts are per pass
#: over the query set; times are the median per pass.
LAYER_METRICS = {
    "subspaces.find_dss.calls": "count",
    "subspaces.find_dss.total_s": "s",
    "subspaces.find_dss.self_s": "s",
    "subspaces.project.calls": "count",
    "subspaces.project.self_s": "s",
    "subspaces.check_rank_bound.calls": "count",
    "subspaces.check_rank_bound.total_s": "s",
    "subspaces.check_certificate.total_s": "s",
    "subspaces.candidates": "count",
    "subspaces.classified": "count",
    "subspaces.screened_out": "count",
    "subspaces.certificates": "count",
    "subspaces.screen_pass_ratio": "ratio",
    "subspaces.certified_ratio": "ratio",
    "states.DensityMatrix.calls": "count",
    "states.DensityMatrix.self_s": "s",
    "states.DensityMatrix.max_side": "rows",
    "states.PureState.calls": "count",
    "states.tensor_power.calls": "count",
    "states.tensor_power.self_s": "s",
    "entanglement.dimension_signature.calls": "count",
    "entanglement.dimension_signature.self_s": "s",
    "entanglement.concurrence.calls": "count",
    "entanglement.concurrence.self_s": "s",
    "linalg.numerical_rank.calls": "count",
    "linalg.numerical_rank.self_s": "s",
    "linalg.eig_hermitian.calls": "count",
    "linalg.eig_hermitian.self_s": "s",
    "localops.apply.calls": "count",
    "localops.apply.self_s": "s",
    "protocols.run.calls": "count",
    "protocols.run.self_s": "s",
    "protocols.branches_out": "count",
    "fileio.read.calls": "count",
    "fileio.read.self_s": "s",
    "fileio.read.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Work counters that must repeat exactly between traced passes and runs.
WORK_COUNTERS = [name for name, unit in LAYER_METRICS.items() if unit in ("count", "rows", "bytes")]


class Tracer:
    def __init__(self):
        self.passes: list[list[list]] = []  # spans per traced pass
        self.extra: list[dict[str, float]] = []  # hook counters per traced pass
        self._stack: list[int] = []
        self._spans: list[list] = []
        self._counters: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []
        self.query: str | None = None

    # -- recording ---------------------------------------------------------

    def begin_pass(self) -> None:
        self._spans, self._counters, self._stack = [], defaultdict(float), []
        self.passes.append(self._spans)
        self.extra.append(self._counters)

    def _wrap(self, name, fn, hook=None):
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self._spans, self._stack
            span = [name, perf(), 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if hook is not None:
                hook(self, span, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dsskit" or n.startswith("dsskit.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, attr, name in CLASSES:
            cls = getattr(importlib.import_module(mod_name), attr)
            original = cls.__dict__["__init__"]
            self._installed.append((cls, "__init__", original))
            cls.__init__ = self._wrap(name, original, _HOOKS.get(name))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def pass_stats(self, index: int) -> dict[str, float]:
        """Per-layer calls, total and self time, and counters of one traced pass.

        Self time is a span's duration minus the durations of its children.
        Calls and total time count only the outermost span of a name, so
        nested reads are not counted twice.
        """
        spans = self.passes[index]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            stats[name + ".self_s"] += (end - start) - child[i]
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name != name:
                stats[name + ".calls"] += 1
                stats[name + ".total_s"] += end - start
            if name == "subspaces.project" and parent_name == "subspaces.find_dss":
                stats["subspaces.classified"] += 1
        stats.update(self.extra[index])
        stats["subspaces.screened_out"] = stats["subspaces.candidates"] - stats["subspaces.classified"]
        stats["subspaces.screen_pass_ratio"] = _ratio(stats["subspaces.classified"], stats["subspaces.candidates"])
        stats["subspaces.certified_ratio"] = _ratio(stats["subspaces.certificates"], stats["subspaces.classified"])
        return stats

    def write(self, path: str, meta: dict) -> None:
        doc = {**meta, "span_fields": ["name", "start", "end", "parent", "query"], "passes": self.passes}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _ratio(num: float, base: float) -> float:
    """A ratio with a zero base (the layer did no work) reads 0."""
    return num / base if base else 0.0


def _on_find_dss(tracer: Tracer, span, args, result) -> None:
    rho = args[0]
    tracer._counters["subspaces.candidates"] += math.prod((1 << d) - 1 for d in rho.shape.dims)
    tracer._counters["subspaces.certificates"] += len(result)


def _on_density_matrix(tracer: Tracer, span, args, result) -> None:
    side = args[0].mat.shape[0]
    key = "states.DensityMatrix.max_side"
    tracer._counters[key] = max(tracer._counters[key], side)


def _on_run(tracer: Tracer, span, args, result) -> None:
    tracer._counters["protocols.branches_out"] += len(result.branches)


def _on_read(tracer: Tracer, span, args, result) -> None:
    parent = span[3]
    if parent < 0 or tracer._spans[parent][0] != "fileio.read":
        tracer._counters["fileio.read.bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "subspaces.find_dss": _on_find_dss,
    "states.DensityMatrix": _on_density_matrix,
    "protocols.run": _on_run,
    "fileio.read": _on_read,
}
