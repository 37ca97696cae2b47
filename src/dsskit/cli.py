"""Command-line front end.

Subcommands: ``dss find``, ``dss check``, ``decompose``, ``entanglement``,
``filter-compare``, ``simulate`` and ``rankbound``.  Text reports are
stable-ordered and diff-friendly with numbers at 12 significant digits;
``--json`` additionally writes the structured report.  Exit codes: 0 on
success, 2 when ``dss find`` finds no certificate (absence is a result,
not an error), 1 on input or validation problems.

Every subcommand that reads a state (``dss find``, ``dss check``,
``entanglement``, ``simulate`` and ``rankbound``) takes the same state
flags: ``--state`` (a preset name or a state file), ``--p``, ``--F``,
``--lambda`` and ``--copies``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii
from typing import Any

from . import fileio
from .entanglement import (
    entanglement_of_formation,
    filter_comparison_curve,
    dimension_signature,
    schmidt,
)
from .errors import Error
from .linalg import Tolerance
from .localops import decompose
from .protocols import ghz_from_two_copies, run, werner_two_copy
from .states import (
    DensityMatrix,
    SystemShape,
    _power_shape,
    _power_spectrum,
    _power_top_eigenstate,
    bell_state,
    filter_example,
    ghz_state,
    tensor_power,
    three_qubit_example,
    w_state,
    w_state_variant,
    werner,
)
from .subspaces import (
    Refusal,
    candidate_count,
    check_certificate,
    power_rank,
    rank_bound,
    search_dss,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CERTIFICATE = 2

TOLERANCE_PROFILES = {
    "default": Tolerance(),
    "strict": Tolerance(1e-12, 1e-12, 1e-12, 1e-12),
    "loose": Tolerance(1e-6, 1e-6, 1e-6, 1e-6),
}

TOLERANCE_ENV_VAR = "DSSKIT_TOLERANCE_PROFILE"

#: Most points a ``--grid A:B:STEP`` may give; a longer grid is refused
#: before any work, and so is a STEP too small to move the next point.
_GRID_MAX_POINTS = 10_000

#: How far past B a grid point may land from the roundoff of adding STEP and
#: still count: a fixed slack of the grid's arithmetic, not a caller's tolerance.
_GRID_END_SLACK = 1e-12

#: Preset states addressable from --state, with the flag each one consumes.
PRESETS = {
    "example3q": ("p", lambda args: three_qubit_example(args.p)),
    "werner": ("F", lambda args: werner(args.F)),
    "filter": ("lambda", lambda args: filter_example(args.lam)),
    "ghz": (None, lambda args: ghz_state().to_density()),
    "w": (None, lambda args: w_state().to_density()),
    "w-variant": (None, lambda args: w_state_variant().to_density()),
    "bell": (None, lambda args: bell_state("phi+").to_density()),
}


class CliUsageError(Error):
    """Bad flags or arguments; maps to exit code 1, never 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with code 2
        raise CliUsageError(f"{message}\n{self.format_usage()}".rstrip())


@dataclass
class Report:
    """One command's structured result; ``--json`` writes its fields as a dict."""

    command: str
    inputs: dict
    results: dict
    warnings: list = field(default_factory=list)
    timing_ms: float = 0.0


#: The text writers of scalars, by exact type: a lookup, as in ``_JSON_SCALARS``.
_TEXT_SCALARS = {
    str: str,
    float: "{:.12g}".format,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "none",
}


def _fmt_scalar(value) -> str:
    """A scalar's text; of a type outside ``_TEXT_SCALARS``, a ``float``
    subclass (``np.float64``) is written as a float and any other by ``str``."""
    text = _TEXT_SCALARS.get(type(value))
    if text is not None:
        return text(value)
    return f"{value:.12g}" if isinstance(value, float) else str(value)


_CONTAINERS = (dict, list, tuple)


def _is_scalar(value) -> bool:
    return not isinstance(value, _CONTAINERS)


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    """A dict key as ``json`` writes it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


#: The scalar writers, by exact type: for these types ``json``'s chain of
#: type tests takes the same branch, so a lookup stands in for the chain.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    float: _json_float,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_scalar(value) -> str:
    """The JSON text of a value that is no dict, list or tuple.  A type in
    ``_JSON_SCALARS`` takes its writer.  Any other value takes the rest of
    ``json``'s type tests in ``json``'s order, so subclasses of ``str``,
    ``int`` and ``float`` (``np.float64`` among them) are written as their
    base (``bool`` and ``None`` have no subclasses)."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _walk(value, pad: str, lines: list[str], out: list[str] | None, newline: str) -> None:
    """Append the text lines of a dict (``key: ...``) or a sequence (``-
    ...``) of values, indented by ``pad``, to ``lines``, and unless ``out``
    is None its JSON text to ``out``; ``newline`` starts a JSON line at the
    value's depth.  A report holds only what ``json.dumps`` takes, so its
    mappings are dicts."""
    is_dict = isinstance(value, dict)
    entries = value.items() if is_dict else zip(itertools.repeat(None), value)
    inner, dash = newline + "  ", pad + "-"
    if out is not None:
        if not value:
            out.append("{}" if is_dict else "[]")
            return
        sep = ("{" if is_dict else "[") + inner
    for key, val in entries:
        head = f"{pad}{key}:" if is_dict else dash
        if out is not None:
            if is_dict:
                sep += encode_basestring_ascii(key if type(key) is str else _json_key(key)) + ": "
            out.append(sep)
            sep = "," + inner
        if not isinstance(val, _CONTAINERS):
            text = _TEXT_SCALARS.get(type(val), _fmt_scalar)
            lines.append(f"{head} {text(val)}")
            if out is not None:
                out.append(_JSON_SCALARS.get(type(val), _json_scalar)(val))
        elif isinstance(val, dict) or not all(map(_is_scalar, val)):
            lines.append(head if val else f"{head} {{}}")
            _walk(val, pad + "  ", lines, out, inner)
        else:
            ints = set(map(type, val)) == {int}  # an exact int's text and JSON text are its repr
            texts = list(map(int.__repr__ if ints else _fmt_scalar, val))
            lines.append(f"{head} [{', '.join(texts)}]")
            if out is not None:
                deeper = inner + "  "
                items = texts if ints else map(_json_scalar, val)
                out.append("[" + deeper + ("," + deeper).join(items) + inner + "]" if val else "[]")
    if out is not None:
        out.append(newline + ("}" if is_dict else "]"))


def _report_texts(report: Report, with_json: bool) -> tuple[str, str | None]:
    """The text report and, with ``with_json``, ``json.dumps(fields,
    indent=2)`` of its fields (else None), from one walk (:func:`_walk`).
    The JSON quotes strings with ``json``'s ASCII escaper, writes floats with
    ``float.__repr__`` (``NaN``, ``±Infinity`` as ``json`` does), raises
    ``TypeError`` where ``json.dumps`` would and skips the cycle check."""
    lines = [f"command: {report.command}"]
    out = ['{\n  "command": ' + _json_scalar(report.command)] if with_json else None
    for name, tree in (("inputs", report.inputs), ("results", report.results), ("warnings", report.warnings)):
        lines.append(f"{name}: []" if name == "warnings" and not tree else f"{name}:")
        if out is not None:
            out.append(f',\n  "{name}": ')
        _walk(tree, "  ", lines, out, "\n  ")
    lines.append(f"elapsed ms: {report.timing_ms:.12g}")
    if out is None:
        return "\n".join(lines), None
    out.append(',\n  "timing_ms": ' + _json_scalar(report.timing_ms) + "\n}")
    return "\n".join(lines), "".join(out)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliUsageError(f"expected a comma-separated integer list, got {text!r}") from exc


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="also write the structured report (use '-' for stdout)")
    common.add_argument("--seed", type=int, default=0, help="seed for any randomized feature (default 0)")
    for tolerance in fields(Tolerance):
        name = tolerance.name.replace("_", "-")
        common.add_argument(f"--{name}", type=float, default=None, help=f"override tolerance {name}")
    return common


def _state_options(required: bool) -> argparse.ArgumentParser:
    opts = argparse.ArgumentParser(add_help=False)
    opts.add_argument("--state", required=required, help="state file path or preset name "
                      f"({', '.join(sorted(PRESETS))})")
    opts.add_argument("--p", type=float, help="mixing weight for the example3q preset")
    opts.add_argument("--F", type=float, help="fidelity parameter for the werner preset")
    opts.add_argument("--lambda", dest="lam", type=float, help="mixing weight for the filter preset")
    opts.add_argument("--copies", type=int, help="tensor-power copies (default 1)")
    return opts


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process.  Each subcommand names its
    handler as the ``run`` default; parsing fills a fresh namespace per call,
    so no parsed value outlives one :func:`main` call."""
    parser = _Parser(prog="dsskit", description=__doc__)
    common = _common_options()
    state_opts = _state_options(required=True)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    dss = sub.add_parser("dss", help="distillable-subspace search and certificate checks")
    dss_sub = dss.add_subparsers(dest="dss_command", parser_class=_Parser, required=True)

    find = dss_sub.add_parser("find", parents=[common, state_opts],
                              help="search basis subsets for distillable subspaces")
    find.set_defaults(run=_cmd_dss_find)
    find.add_argument("--bases", metavar="PATH", help="per-party rotated bases file")
    find.add_argument("--require-entangled", action=argparse.BooleanOptionalAction, default=True,
                      help="keep only pure entangled projections (default on)")
    find.add_argument("--min-signature", type=_int_list, default=None,
                      help="componentwise lower bound on the dimension signature, e.g. 2,2,2")

    check = dss_sub.add_parser("check", parents=[common, state_opts],
                               help="re-verify a claimed distillable subspace")
    check.set_defaults(run=_cmd_dss_check)
    check.add_argument("--subspace", required=True, metavar="PATH", help="subspace file to verify")

    dec = sub.add_parser("decompose", parents=[common],
                         help="factor a product operator into projector, filter and unitary parts")
    dec.set_defaults(run=_cmd_decompose)
    dec.add_argument("--operator", required=True, metavar="PATH", help="operator file")

    ent = sub.add_parser("entanglement", parents=[common, state_opts],
                         help="signature / Schmidt / concurrence / entanglement of formation")
    ent.set_defaults(run=_cmd_entanglement)

    fc = sub.add_parser("filter-compare", parents=[common],
                        help="entanglement of formation before and after the upgrade filter")
    fc.set_defaults(run=_cmd_filter_compare)
    fc.add_argument("--lambda", dest="lam", type=float, required=True, help="mixing weight")
    fc.add_argument("--grid", metavar="A:B:STEP", help="also evaluate the comparison on a lambda grid")

    optional_state = _state_options(required=False)
    sim = sub.add_parser("simulate", parents=[common, optional_state],
                         help="run a protocol file (with --state) or a built-in worked example")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("builtin", nargs="?", choices=("ghz-example", "werner-example"),
                     help="built-in protocol to run: ghz-example takes --p, werner-example --F")
    sim.add_argument("--protocol", metavar="PATH", help="protocol file (with --state)")

    rb = sub.add_parser("rankbound", parents=[common, optional_state],
                        help="rank ceiling for producing a pure state of a given signature")
    rb.set_defaults(run=_cmd_rankbound)
    rb.add_argument("--dims", type=_int_list, help="per-party dims, e.g. 2,2,2 (in place of --state)")
    rb.add_argument("--signature", type=_int_list, required=True, help="target signature, e.g. 2,2,2")

    return parser


def _resolve_tolerance(args) -> tuple[Tolerance, list[str]]:
    profile_name = os.environ.get(TOLERANCE_ENV_VAR, "default")
    if profile_name not in TOLERANCE_PROFILES:
        raise CliUsageError(
            f"{TOLERANCE_ENV_VAR}={profile_name!r} is not one of {sorted(TOLERANCE_PROFILES)}"
        )
    overrides = {}
    for tolerance in fields(Tolerance):
        value = getattr(args, tolerance.name)
        if value is not None:
            if not 0.0 <= value <= 1e-3:
                raise CliUsageError(
                    f"--{tolerance.name.replace('_', '-')} must lie in [0, 1e-3], got {value}"
                )
            overrides[tolerance.name] = value
    warnings = []
    if profile_name != "default":
        warnings.append(f"tolerance profile {profile_name!r} from {TOLERANCE_ENV_VAR}")
    return replace(TOLERANCE_PROFILES[profile_name], **overrides), warnings


def _read_input(path: str) -> tuple[Any, dict]:
    """The JSON document of an input file and how a report records the
    file, its path and a short SHA-256, both from one read."""
    doc, digest = fileio.read_document(path)
    return doc, {"path": path, "sha256": digest[:16]}


def _preset_flags(args) -> dict[str, Any]:
    """The preset parameter flags (flag name -> parsed value, None when absent)."""
    return {"p": args.p, "F": args.F, "lambda": args.lam}


def _resolve_state(args, tol: Tolerance) -> tuple[DensityMatrix, dict]:
    """The state ``--state`` names, a state file checked to ``tol``; a preset
    parameter flag it does not read is a usage error."""
    name = args.state
    flags = _preset_flags(args)
    if name in PRESETS:
        flag, builder = PRESETS[name]
        inputs: dict[str, Any] = {"preset": name}
        if flag is not None:
            value = flags.pop(flag)
            if value is None:
                raise CliUsageError(f"preset {name!r} requires --{flag}")
            inputs[flag] = value
        _refuse_with(f"--state {name}", **flags)
        return builder(args), inputs
    if os.path.exists(name):
        _refuse_with("a state file", **flags)
        doc, inputs = _read_input(name)
        return fileio.load_state(doc, tol), inputs
    raise CliUsageError(f"--state {name!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a file")


def _single_state(args, tol: Tolerance) -> tuple[DensityMatrix, dict]:
    """Resolve the single-copy state and check --copies, recorded in the inputs."""
    single, inputs = _resolve_state(args, tol)
    copies = _copies(args)
    if copies < 1:
        raise CliUsageError(f"--copies must be >= 1, got {copies}")
    inputs["copies"] = copies
    return single, inputs


def _copies(args) -> int:
    """``--copies``, 1 when not given."""
    return 1 if args.copies is None else args.copies


def _refuse_with(context: str, **flags) -> None:
    """A usage error naming the first of ``flags`` (flag name -> parsed value)
    that was given, since with ``context`` it would go unread."""
    for flag, value in flags.items():
        if value is not None:
            raise CliUsageError(f"--{flag} cannot be combined with {context}")


def _indices_doc(labels, indices) -> dict:
    return {"per_party_indices": {label: list(idx) for label, idx in zip(labels, indices)}}


def _subspace_doc(cert_subspace) -> dict:
    if cert_subspace.basis_indices is not None:
        return _indices_doc(cert_subspace.labels, cert_subspace.basis_indices)
    return {
        "per_party_dims": {label: v.shape[1] for label, v in cert_subspace.parties}
    }


def _certificate_doc(subspace_doc: dict, outcome) -> dict:
    """A certificate's fields: its subspace's, and the ``weight``,
    ``classification`` and ``signature`` of ``outcome``, a
    :class:`ProjectionOutcome` or a search's record."""
    return {
        "subspace": subspace_doc,
        "weight": outcome.weight,
        "classification": outcome.classification,
        "signature": list(outcome.signature),
    }


def _rank_bound_doc(rank: int, bound: int) -> dict:
    """The rank bound check of one certificate, given the measured rank of the
    n-copy state and the :func:`rank_bound` of its signature; the same fields
    :func:`check_rank_bound` reports."""
    return {"rank": rank, "bound": bound, "satisfied": rank <= bound}


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_dss_find(args, tol, warnings) -> tuple[Report, int]:
    single, inputs = _single_state(args, tol)
    shape = _power_shape(single, inputs["copies"])
    bases = None
    if args.bases:
        doc, inputs["bases"] = _read_input(args.bases)
        bases = fileio.load_bases(doc, shape)
    count = candidate_count(shape)
    # Rendered from the search's records: a zero-padded certificate gets no
    # state, subspace or outcome object.
    records = search_dss(
        single,
        bases,
        copies=inputs["copies"],
        require_entangled=args.require_entangled,
        min_signature=args.min_signature,
        tol=tol,
    ).records
    results: dict[str, Any] = {
        "search_space_dims": list(shape.dims),
        "candidates": count,
        "certificates_found": len(records),
    }
    docs = []
    rank = power_rank(single, inputs["copies"], tol) if records else None
    bounds = {}  # one rank bound per distinct signature
    for record in records:
        signature = record.signature
        if signature not in bounds:
            bounds[signature] = rank_bound(single.shape, inputs["copies"], signature)
        doc = _certificate_doc(_indices_doc(shape.labels, record.indices), record)
        doc["rank_bound_check"] = _rank_bound_doc(rank, bounds[signature])
        docs.append(doc)
    if docs:
        results["certificates"] = docs
        code = EXIT_OK
    else:
        results["message"] = "no DSS found over supplied bases"
        code = EXIT_NO_CERTIFICATE
    return Report("dss find", inputs, results, warnings), code


def _cmd_dss_check(args, tol, warnings) -> tuple[Report, int]:
    # The n-copy state is never built: the subspace compression and the
    # rank both come from the single copy.
    single, inputs = _single_state(args, tol)
    doc, inputs["subspace"] = _read_input(args.subspace)
    subspace = fileio.load_subspace(doc)
    verdict = check_certificate(single, subspace, tol, copies=inputs["copies"])
    if isinstance(verdict, Refusal):
        results = {
            "accepted": False,
            "refusal": verdict.reason,
            "weight": verdict.outcome.weight,
            "classification": verdict.outcome.classification,
        }
    else:
        results = {"accepted": True, **_certificate_doc(_subspace_doc(verdict.subspace), verdict.outcome)}
        rank = power_rank(single, inputs["copies"], tol)
        bound = rank_bound(single.shape, inputs["copies"], verdict.outcome.signature)
        results["rank_bound_check"] = _rank_bound_doc(rank, bound)
    return Report("dss check", inputs, results, warnings), EXIT_OK


def _cmd_decompose(args, tol, warnings) -> tuple[Report, int]:
    doc, recorded = _read_input(args.operator)
    op = fileio.load_operator(doc)
    inputs = {"operator": recorded}
    factors = []
    for factor in op.factors:
        parts = decompose(factor, tol)
        if factor.scale != 1.0:
            warnings.append(
                f"factor for party {factor.party!r} rescaled by 1/{factor.scale:.12g} "
                "to satisfy the unit spectral-norm bound"
            )
        factors.append(
            {
                "party": factor.party,
                "retained_dim": parts.retained_dim,
                "weights": [float(w) for w in parts.weights],
                "retained_basis": fileio.matrix_to_doc(parts.retained_basis),
                "projector": fileio.matrix_to_doc(parts.lpo),
                "filter": fileio.matrix_to_doc(parts.lfo),
                "unitary": fileio.matrix_to_doc(parts.luo),
            }
        )
    return Report("decompose", inputs, {"factors": factors}, warnings), EXIT_OK


def _cmd_entanglement(args, tol, warnings) -> tuple[Report, int]:
    single, inputs = _single_state(args, tol)
    copies = inputs["copies"]
    # The power itself is never built: a pure power's top eigenvector is
    # the regrouped kron of the single copy's.
    top = float(_power_spectrum(single, copies).max())
    results: dict[str, Any] = {"per_party_dims": [d**copies for d in single.shape.dims]}
    results["top_eigenvalue"] = top
    results["pure"] = bool(top >= 1.0 - tol.purity_atol)
    if results["pure"]:
        psi = _power_top_eigenstate(single, copies)
        results["signature"] = list(dimension_signature(psi, tol))
        if len(single.shape.parties) == 2:
            results["schmidt_coefficients"] = [float(c) for c in schmidt(psi)]
    if copies == 1 and single.shape.dims == (2, 2):
        report = entanglement_of_formation(single, tol)
        results["concurrence"] = report.concurrence
        results["entanglement_of_formation"] = report.eof
    return Report("entanglement", inputs, results, warnings), EXIT_OK


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, step = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise CliUsageError(f"--grid expects A:B:STEP, got {text!r}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise CliUsageError(f"--grid needs finite A, B and STEP, got {text!r}")
    if step <= 0 or stop < start:
        raise CliUsageError(f"--grid needs step > 0 and B >= A, got {text!r}")
    if start + step == start:
        raise CliUsageError(f"--grid STEP is too small to move A, got {text!r}")
    values = []
    x = start
    while x <= stop + _GRID_END_SLACK:
        if len(values) == _GRID_MAX_POINTS:
            raise CliUsageError(f"--grid gives more than {_GRID_MAX_POINTS} points, got {text!r}")
        values.append(round(x, 12))
        x += step
    return values


def _cmd_filter_compare(args, tol, warnings) -> tuple[Report, int]:
    inputs: dict[str, Any] = {"lambda": args.lam}
    grid = _parse_grid(args.grid) if args.grid else []
    # One stacked pass: the comparison at --lambda, then the grid rows.
    comparison, *rows = filter_comparison_curve([args.lam] + grid, tol)
    results: dict[str, Any] = {
        "eof_before": comparison.eof_before,
        "eof_after": comparison.eof_after,
        "concurrence_before": comparison.concurrence_before,
        "concurrence_after": comparison.concurrence_after,
        "lambda_prime": comparison.lambda_prime,
        "success_probability": comparison.success_probability,
        "improved": comparison.improved,
    }
    if args.grid:
        inputs["grid"] = args.grid
        results["grid"] = [
            {"lambda": row.lam, "eof_before": row.eof_before, "eof_after": row.eof_after}
            for row in rows
        ]
    return Report("filter-compare", inputs, results, warnings), EXIT_OK


def _cmd_simulate(args, tol, warnings) -> tuple[Report, int]:
    if args.builtin is not None:
        unread = _preset_flags(args)
        del unread[{"ghz-example": "p", "werner-example": "F"}[args.builtin]]
        _refuse_with(f"simulate {args.builtin}", state=args.state, protocol=args.protocol,
                     copies=args.copies, **unread)
    if args.builtin == "ghz-example":
        if args.p is None:
            raise CliUsageError("simulate ghz-example requires --p")
        report = ghz_from_two_copies(args.p)
        results = {
            "success_probability": report.success_probability,
            "all_branches_corrected": report.all_corrected,
            "branches": [
                {
                    "outcomes": list(b.outcomes),
                    "probability": b.probability,
                    "fidelity": b.fidelity,
                    "fidelity_uncorrected": b.fidelity_uncorrected,
                }
                for b in report.branches
            ],
        }
        return Report("simulate ghz-example", {"p": args.p}, results, warnings), EXIT_OK
    if args.builtin == "werner-example":
        if args.F is None:
            raise CliUsageError("simulate werner-example requires --F")
        report = werner_two_copy(args.F, tol)
        results = {
            "concurrence_before": report.concurrence_before,
            "combined_concurrence": report.combined_concurrence,
            "subspaces": [
                {
                    "name": s.name,
                    "per_party_indices": list(s.indices),
                    "weight": s.weight,
                    "bell_diagonal": s.bell_diagonal,
                    "max_bell_offdiag": s.max_bell_offdiag,
                    "concurrence_after": s.concurrence_after,
                }
                for s in report.subspaces
            ],
        }
        return Report("simulate werner-example", {"F": args.F}, results, warnings), EXIT_OK
    if not args.protocol or not args.state:
        raise CliUsageError("simulate needs a builtin name, or both --protocol and --state")
    single, inputs = _single_state(args, tol)
    rho = tensor_power(single, inputs["copies"], tol)
    doc, recorded = _read_input(args.protocol)
    steps = fileio.load_protocol(doc, fileio.protocol_dir(args.protocol))
    inputs["protocol"] = recorded
    outcome = run(steps, rho)
    results = {
        "steps": len(steps),
        "success_probability": outcome.success_probability,
        "dropped_weight": outcome.dropped_weight,
        "branches": [
            {
                "outcomes": list(b.outcomes),
                "probability": b.probability,
                "final_dims": list(b.state.shape.dims),
            }
            for b in outcome.branches
        ],
    }
    return Report("simulate", inputs, results, warnings), EXIT_OK


def _cmd_rankbound(args, tol, warnings) -> tuple[Report, int]:
    measured = None
    if args.state:
        _refuse_with("--state", dims=args.dims)
        single, inputs = _single_state(args, tol)
        shape = single.shape
        measured = power_rank(single, inputs["copies"], tol)
    elif args.dims:
        _refuse_with("--dims", **_preset_flags(args))
        shape = SystemShape.of(*((chr(ord("A") + i), d) for i, d in enumerate(args.dims)))
        inputs = {"dims": list(args.dims), "copies": _copies(args)}
    else:
        raise CliUsageError("rankbound needs --dims or --state")
    inputs["signature"] = list(args.signature)
    bound = rank_bound(shape, inputs["copies"], args.signature)
    results: dict[str, Any] = {"bound": bound}
    if measured is not None:
        results["measured_rank"] = measured
        results["satisfied"] = measured <= bound
    return Report("rankbound", inputs, results, warnings), EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        tol, warnings = _resolve_tolerance(args)
        report, code = args.run(args, tol, warnings)
    except Error as exc:  # CliUsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report.inputs.setdefault("seed", args.seed)
    report.timing_ms = (time.perf_counter() - started) * 1000.0
    text, payload = _report_texts(report, bool(args.json))
    print(text)
    if payload is not None:
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
