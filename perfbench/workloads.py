"""Workload definitions: seeded query sets and the checks on their outputs.

Each workload is a list of CLI queries (argv for ``dsskit.cli.main``), one
pass over which is timed as ``wall_s``.  Every query carries the exit code
and the checks its output must pass; the expected values come from closed
forms and the golden reports, never from running dsskit itself.  The seed
draws the state parameters and the generated JSON input files; the same seed
always gives the same queries.

``smoke=True`` builds the same query kinds at small sizes.  The benchmark
uses that set as the warm-up of every workload and as its quick mode.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("search-werner3", "search-ghz2", "protocols-sweep", "certify-dense")
#: The workloads ``BENCHMARK.json`` gates.  ``search-werner3`` is one 7-10 s
#: query per pass, too few repetitions in a run to give a steady timing on a
#: shared host; it stays runnable for comparisons with longer runs.
GATED = ("search-ghz2", "protocols-sweep", "certify-dense")

EXIT_OK = 0
EXIT_NO_CERTIFICATE = 2

#: Absolute tolerance on floats printed by the CLI at 12 significant digits.
ATOL = 1e-9


@dataclass(frozen=True)
class Query:
    """One CLI call and the checks on its exit code and JSON report."""

    kind: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], list[str]]
    golden: str | None = None  # path of a golden text report, compared verbatim
    candidates: int = 0  # search-space size of a ``dss find`` query


# ---------------------------------------------------------------------------
# Closed forms used by the checks
# ---------------------------------------------------------------------------


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c: float) -> float:
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def werner_two_copy_weight(F: float) -> float:
    """Weight of either two-copy Bell-diagonal projection of werner(F)."""
    q = (1.0 - F) / 3.0
    return (F * F + 2.0 * F * q + 5.0 * q * q) / 2.0


def werner_two_copy_fidelity(F: float) -> float:
    """phi+ weight after the two-copy projection: (F^2 + q^2) / (F^2 + 2Fq + 5q^2)."""
    q = (1.0 - F) / 3.0
    return (F * F + q * q) / (F * F + 2.0 * F * q + 5.0 * q * q)


def candidate_count(local_dims: list[int]) -> int:
    return math.prod((1 << d) - 1 for d in local_dims)


def _close(problems: list[str], what: str, got, want: float, atol: float = ATOL) -> None:
    if not isinstance(got, (int, float)) or abs(float(got) - want) > atol * max(1.0, abs(want)):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _equal(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# Generated input files (written with numpy, not with dsskit.fileio)
# ---------------------------------------------------------------------------


def _matrix_doc(mat) -> dict:
    arr = np.asarray(mat, dtype=np.complex128)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _basis(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def _subspace_doc(per_party: dict[str, tuple[int, ...]], dim: int) -> dict:
    return {
        "parties": [
            {"label": label, "vectors": [_matrix_doc(_basis(dim, i)) for i in idx]}
            for label, idx in per_party.items()
        ]
    }


def _example3q(p: float) -> np.ndarray:
    ghz = np.zeros(8, dtype=np.complex128)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    prod011 = _basis(8, 0b011)
    return p * np.outer(ghz, ghz.conj()) + (1.0 - p) * np.outer(prod011, prod011.conj())


def _werner(F: float) -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    bell = [
        np.array([s, 0, 0, s]),
        np.array([s, 0, 0, -s]),
        np.array([0, s, s, 0]),
        np.array([0, s, -s, 0]),
    ]
    q = (1.0 - F) / 3.0
    return sum(w * np.outer(v, v).astype(np.complex128) for w, v in zip((F, q, q, q), bell))


def _two_copies(mat: np.ndarray, parties: int) -> np.ndarray:
    """rho (x) rho over qubit parties, regrouped so each party holds both copies."""
    big = np.kron(mat, mat).reshape([2] * (4 * parties))
    order = [c * parties + p for p in range(parties) for c in range(2)]
    side = 4**parties
    return big.transpose(order + [2 * parties + o for o in order]).reshape(side, side)


def _state_doc(mat: np.ndarray, labels: str) -> dict:
    return {
        "parties": [{"label": label, "dim": 4, "dims": [2, 2]} for label in labels],
        "matrix": _matrix_doc(mat),
    }


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _ghz_protocol_doc() -> dict:
    """GHZ distillation on two copies: project, rotate, measure, correct."""
    labels = "ABC"
    return {
        "steps": [
            {"kind": "project", "subspace": _subspace_doc({lb: (1, 2) for lb in labels}, 4)},
            {
                "kind": "local_unitary",
                "gates": {lb: _matrix_doc(np.kron(np.eye(2), _HADAMARD)) for lb in labels},
            },
            *({"kind": "measure_and_discard", "party": lb, "subsystem": 1} for lb in labels),
            {
                "kind": "conditional",
                "parity": "odd",
                "step": {"kind": "local_unitary", "gates": {"A": _matrix_doc(np.diag([1.0, -1.0]))}},
            },
        ]
    }


def _werner_protocol_doc() -> dict:
    """Two-copy Werner projection onto span{|01>,|10>}, then measure copy 2."""
    return {
        "steps": [
            {"kind": "project", "subspace": _subspace_doc({"A": (1, 2), "B": (1, 2)}, 4)},
            {"kind": "measure_and_discard", "party": "A", "subsystem": 1},
            {"kind": "measure_and_discard", "party": "B", "subsystem": 1},
        ]
    }


# ---------------------------------------------------------------------------
# Query builders
# ---------------------------------------------------------------------------


def _param(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.4f}"


def _json_argv(*argv: str) -> tuple[str, ...]:
    return argv + ("--json", "-")


def werner_find(F: str, copies: int) -> Query:
    # werner(F) has full rank for 0 < F < 1, so the rank bound
    # 4^n - prod(n_i) + 1 rules out every entangled signature: no certificate.
    want_candidates = candidate_count([2**copies, 2**copies])

    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _equal(problems, "candidates", res.get("candidates"), want_candidates)
        _equal(problems, "certificates_found", res.get("certificates_found"), 0)
        _equal(problems, "certificates", res.get("certificates"), None)
        return problems

    argv = _json_argv("dss", "find", "--state", "werner", "--F", F, "--copies", str(copies))
    return Query("dss-find", argv, EXIT_NO_CERTIFICATE, check, candidates=want_candidates)


def ghz_find(p: str, copies: int) -> Query:
    # Two copies: 24 certificates, one minimal (2,2,2) GHZ projection of
    # weight p^2/2 plus 23 zero-weight paddings; rank(rho^(x2)) = 4.
    # One copy admits no distillable subspace.
    want_certs = 24 if copies == 2 else 0
    want_candidates = candidate_count([2**copies] * 3)
    pv = float(p)

    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _equal(problems, "candidates", res.get("candidates"), want_candidates)
        _equal(problems, "certificates_found", res.get("certificates_found"), want_certs)
        certs = res.get("certificates", [])
        _equal(problems, "certificate entries", len(certs), want_certs)
        for i, cert in enumerate(certs):
            _equal(problems, f"cert {i} classification", cert["classification"], "pure-entangled")
            _equal(problems, f"cert {i} signature", cert["signature"], [2, 2, 2])
            _close(problems, f"cert {i} weight", cert["weight"], pv * pv / 2.0)
            rb = cert["rank_bound_check"]
            _equal(problems, f"cert {i} rank bound", (rb["rank"], rb["bound"], rb["satisfied"]),
                   (4, 64 - 8 + 1, True))
        return problems

    argv = _json_argv("dss", "find", "--state", "example3q", "--p", p, "--copies", str(copies))
    code = EXIT_OK if want_certs else EXIT_NO_CERTIFICATE
    return Query("dss-find", argv, code, check, candidates=want_candidates)


def ghz_example(p: str, golden: str | None = None) -> Query:
    pv = float(p)

    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _close(problems, "success_probability", res["success_probability"], pv * pv / 2.0)
        _equal(problems, "all_branches_corrected", res["all_branches_corrected"], True)
        _equal(problems, "branches", len(res["branches"]), 8)
        for b in res["branches"]:
            _close(problems, f"branch {b['outcomes']} probability", b["probability"], pv * pv / 16.0)
            _close(problems, f"branch {b['outcomes']} fidelity", b["fidelity"], 1.0)
        return problems

    return Query("simulate-ghz", ("simulate", "ghz-example", "--p", p, "--json", "-"),
                 EXIT_OK, check, golden)


def werner_example(F: str, golden: str | None = None) -> Query:
    Fv = float(F)
    c_after = max(0.0, 2.0 * werner_two_copy_fidelity(Fv) - 1.0)

    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _close(problems, "concurrence_before", res["concurrence_before"], max(0.0, 2.0 * Fv - 1.0))
        _close(problems, "combined_concurrence", res["combined_concurrence"], c_after)
        _equal(problems, "subspaces", [s["name"] for s in res["subspaces"]], ["01/10", "00/11"])
        for s in res["subspaces"]:
            _close(problems, f"{s['name']} weight", s["weight"], werner_two_copy_weight(Fv))
            _equal(problems, f"{s['name']} bell_diagonal", s["bell_diagonal"], True)
            _close(problems, f"{s['name']} concurrence_after", s["concurrence_after"], c_after)
        return problems

    return Query("simulate-werner", ("simulate", "werner-example", "--F", F, "--json", "-"),
                 EXIT_OK, check, golden)


def _filter_closed_form(lam: float) -> dict[str, float]:
    lam_prime = 3.0 * lam / (lam + 2.0)
    c_before = lam * math.sqrt(3.0) / 2.0
    return {
        "lambda_prime": lam_prime,
        "success_probability": (lam + 2.0) / 8.0,
        "concurrence_before": c_before,
        "concurrence_after": lam_prime,
        "eof_before": eof_from_concurrence(c_before),
        "eof_after": eof_from_concurrence(lam_prime),
    }


GRID = "0.5:0.95:0.05"


def filter_compare(lam: str, grid: str | None = GRID, golden: str | None = None) -> Query:
    want = _filter_closed_form(float(lam))

    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        for key, value in want.items():
            _close(problems, key, res[key], value)
        _equal(problems, "improved", res["improved"], want["eof_after"] > want["eof_before"])
        if grid is not None:
            rows = res.get("grid", [])
            _equal(problems, "grid rows", len(rows), 10)
            for row in rows:
                form = _filter_closed_form(row["lambda"])
                _close(problems, f"grid {row['lambda']} eof_before", row["eof_before"], form["eof_before"])
                _close(problems, f"grid {row['lambda']} eof_after", row["eof_after"], form["eof_after"])
        return problems

    argv = ("filter-compare", "--lambda", lam) + (("--grid", grid) if grid else ()) + ("--json", "-")
    return Query("filter-compare", argv, EXIT_OK, check, golden)


def werner_entanglement(F: str) -> Query:
    c = max(0.0, 2.0 * float(F) - 1.0)

    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _equal(problems, "pure", res["pure"], False)
        _close(problems, "concurrence", res["concurrence"], c)
        _close(problems, "entanglement_of_formation", res["entanglement_of_formation"],
               eof_from_concurrence(c))
        return problems

    argv = _json_argv("entanglement", "--state", "werner", "--F", F)
    return Query("entanglement", argv, EXIT_OK, check)


#: Pure presets and their dimension signatures.
PURE_PRESETS = {"bell": [2, 2], "ghz": [2, 2, 2], "w": [2, 2, 2]}


def pure_entanglement(preset: str) -> Query:
    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _equal(problems, "pure", res["pure"], True)
        _equal(problems, "signature", res["signature"], PURE_PRESETS[preset])
        if preset == "bell":
            for i, s in enumerate(res["schmidt_coefficients"]):
                _close(problems, f"schmidt {i}", s, 1.0 / math.sqrt(2.0))
            _close(problems, "concurrence", res["concurrence"], 1.0)
        return problems

    return Query("entanglement", _json_argv("entanglement", "--state", preset), EXIT_OK, check)


def protocol_file_query(protocol: str, state: str, success: float, branches: int,
                        final_dims: list[int]) -> Query:
    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _close(problems, "success_probability", res["success_probability"], success)
        _close(problems, "dropped_weight", res["dropped_weight"], 1.0 - success)
        _equal(problems, "branches", len(res["branches"]), branches)
        for b in res["branches"]:
            _equal(problems, f"branch {b['outcomes']} final_dims", b["final_dims"], final_dims)
        return problems

    argv = _json_argv("simulate", "--protocol", protocol, "--state", state)
    return Query("simulate-file", argv, EXIT_OK, check)


def dense_check(p: str, copies: int, fixed: tuple[int, str] | None, subspace: str) -> Query:
    """``dss check`` of a GHZ certificate on copies (i, j), other copy fixed.

    ``fixed`` is (copy index, pattern of the fixed copy on A, B, C) or None
    for two copies.  The pattern 000 or 111 keeps the GHZ term (weight p/2),
    011 keeps the product term (weight 1 - p).
    """
    pv = float(p)
    weight = pv * pv / 2.0
    if fixed is not None:
        weight *= pv / 2.0 if fixed[1] in ("000", "111") else 1.0 - pv
    side = 8**copies

    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _equal(problems, "accepted", res["accepted"], True)
        _equal(problems, "signature", res.get("signature"), [2, 2, 2])
        _close(problems, "weight", res.get("weight"), weight)
        rb = res.get("rank_bound_check", {})
        _equal(problems, "rank bound", (rb.get("rank"), rb.get("bound"), rb.get("satisfied")),
               (2**copies, side - 8 + 1, True))
        return problems

    argv = _json_argv("dss", "check", "--state", "example3q", "--p", p, "--copies", str(copies),
                      "--subspace", subspace)
    return Query("dss-check", argv, EXIT_OK, check)


def dense_rankbound(F: str, copies: int) -> Query:
    side = 4**copies

    def check(doc: dict) -> list[str]:
        problems: list[str] = []
        res = doc["results"]
        _equal(problems, "measured_rank", res.get("measured_rank"), side)
        _equal(problems, "bound", res.get("bound"), side - 4 + 1)
        _equal(problems, "satisfied", res.get("satisfied"), False)
        return problems

    argv = _json_argv("rankbound", "--state", "werner", "--F", F, "--copies", str(copies),
                      "--signature", "2,2")
    return Query("rankbound", argv, EXIT_OK, check)


def _certificate_indices(copies: int, pair: tuple[int, int], pattern: str | None) -> dict:
    """Per-party local indices: copies in ``pair`` span {|01>, |10>}, the
    remaining copy is fixed to the party's bit of ``pattern``."""
    indices = {}
    for party, label in enumerate("ABC"):
        idx = []
        for bits in ((0, 1), (1, 0)):
            local = [0] * copies
            local[pair[0]], local[pair[1]] = bits
            if pattern is not None:
                (other,) = set(range(copies)) - set(pair)
                local[other] = int(pattern[party])
            idx.append(int("".join(map(str, local)), 2))
        indices[label] = tuple(sorted(idx))
    return indices


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

#: Queries per kind in one protocols-sweep pass (smoke: one of each).
SWEEP_MIX = {
    "simulate-ghz": 30,
    "simulate-werner": 30,
    "filter-compare": 30,
    "entanglement-werner": 40,
    "entanglement-pure": 30,
    "protocol-ghz": 20,
    "protocol-werner": 20,
}


def _protocols_sweep(rng: random.Random, workdir: str, golden_dir: str, smoke: bool) -> list[Query]:
    queries = [
        ghz_example("0.5", os.path.join(golden_dir, "ghz_example_0.5.txt")),
        werner_example("0.8", os.path.join(golden_dir, "werner_example_0.8.txt")),
        filter_compare("0.9", None, os.path.join(golden_dir, "filter_compare_0.9.txt")),
    ]
    ghz_protocol = _write(os.path.join(workdir, "protocol-ghz.json"), _ghz_protocol_doc())
    werner_protocol = _write(os.path.join(workdir, "protocol-werner.json"), _werner_protocol_doc())
    presets = sorted(PURE_PRESETS)
    for kind, count in SWEEP_MIX.items():
        for i in range(1 if smoke else count):
            if kind == "simulate-ghz":
                queries.append(ghz_example(_param(rng, 0.3, 0.95)))
            elif kind == "simulate-werner":
                queries.append(werner_example(_param(rng, 0.55, 0.95)))
            elif kind == "filter-compare":
                queries.append(filter_compare(_param(rng, 0.3, 0.99)))
            elif kind == "entanglement-werner":
                queries.append(werner_entanglement(_param(rng, 0.3, 0.99)))
            elif kind == "entanglement-pure":
                queries.append(pure_entanglement(presets[i % len(presets)]))
            elif kind == "protocol-ghz":
                p = _param(rng, 0.3, 0.95)
                state = _write(os.path.join(workdir, f"state-ghz-{i}.json"),
                               _state_doc(_two_copies(_example3q(float(p)), 3), "ABC"))
                queries.append(protocol_file_query(ghz_protocol, state, float(p) ** 2 / 2.0, 8, [2, 2, 2]))
            elif kind == "protocol-werner":
                F = _param(rng, 0.55, 0.95)
                state = _write(os.path.join(workdir, f"state-werner-{i}.json"),
                               _state_doc(_two_copies(_werner(float(F)), 2), "AB"))
                queries.append(protocol_file_query(werner_protocol, state,
                                                   werner_two_copy_weight(float(F)), 4, [2, 2]))
    rng.shuffle(queries)
    return queries


def _certify_dense(rng: random.Random, workdir: str, smoke: bool) -> list[Query]:
    copies = 2 if smoke else 3
    queries = []
    for i in range(2):
        p = _param(rng, 0.3, 0.9)
        if copies == 2:
            pair, fixed = (0, 1), None
        else:
            pair = rng.choice([(0, 1), (0, 2), (1, 2)])
            (other,) = {0, 1, 2} - set(pair)
            fixed = (other, rng.choice(["000", "011", "111"]))
        indices = _certificate_indices(copies, pair, fixed[1] if fixed else None)
        path = _write(os.path.join(workdir, f"subspace-{i}.json"), _subspace_doc(indices, 2**copies))
        queries.append(dense_check(p, copies, fixed, path))
    queries.append(dense_rankbound(_param(rng, 0.55, 0.95), 3 if smoke else 5))
    return queries


def build(workload: str, seed: int, workdir: str, golden_dir: str, smoke: bool = False) -> list[Query]:
    """The query set of one pass of ``workload``; writes its input files to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    if workload == "search-werner3":
        return [werner_find(_param(rng, 0.55, 0.95), 2 if smoke else 3)]
    if workload == "search-ghz2":
        return [ghz_find(_param(rng, 0.3, 0.9), 1 if smoke else 2)]
    if workload == "protocols-sweep":
        return _protocols_sweep(rng, workdir, golden_dir, smoke)
    if workload == "certify-dense":
        return _certify_dense(rng, workdir, smoke)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
