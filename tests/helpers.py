"""Seeded generators and independent oracles shared by the test modules."""

from __future__ import annotations

import builtins
import itertools
import os
from typing import Iterator

import numpy as np

from dsskit import DensityMatrix, LocalSubspace, PureState, SystemShape
from dsskit import states, subspaces


def trace(rho: DensityMatrix) -> float:
    return float(np.real(np.trace(rho.mat)))


def allclose(a: DensityMatrix, b: DensityMatrix, atol: float = 1e-9) -> bool:
    """Same dims and every matrix entry within ``atol``."""
    return a.shape.dims == b.shape.dims and bool(np.max(np.abs(a.mat - b.mat)) <= atol)


def maximally_mixed(shape: SystemShape) -> DensityMatrix:
    d = shape.total_dim
    return DensityMatrix(shape, np.eye(d, dtype=np.complex128) / d)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_pure_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_pure_state(rng: np.random.Generator, shape: SystemShape) -> PureState:
    return PureState(shape, random_pure_vector(rng, shape.total_dim))


def random_density(rng: np.random.Generator, shape: SystemShape, rank: int | None = None) -> DensityMatrix:
    d = shape.total_dim
    rank = d if rank is None else min(rank, d)
    vectors = random_unitary(rng, d)[:, :rank]
    weights = rng.dirichlet(np.ones(rank))
    mat = (vectors * weights) @ np.conj(vectors).T
    return DensityMatrix(shape, mat)


def random_invertible_contraction(rng: np.random.Generator, d: int, smin: float = 0.2) -> np.ndarray:
    """Random operator with singular values in [smin, 1]: contractive and invertible."""
    s = rng.uniform(smin, 1.0, size=d)
    s[0] = 1.0  # pin the spectral norm at 1
    return random_unitary(rng, d) @ np.diag(s) @ random_unitary(rng, d)


def random_contraction(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """Random operator with spectral norm <= 1 and a chosen rank."""
    rank = d if rank is None else rank
    s = np.zeros(d)
    s[:rank] = rng.uniform(0.1, 1.0, size=rank)
    if rank:
        s[0] = 1.0
    return random_unitary(rng, d) @ np.diag(s) @ random_unitary(rng, d)


def flat_index(indices, dims) -> int:
    value = 0
    for i, d in zip(indices, dims):
        value = value * d + i
    return value


def partial_trace_oracle(mat: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    """Direct-summation partial trace, written index by index."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    traced_dims = [dims[i] for i in traced]
    side = int(np.prod(kept_dims))
    out = np.zeros((side, side), dtype=np.complex128)
    for row_kept in np.ndindex(*kept_dims):
        for col_kept in np.ndindex(*kept_dims):
            total = 0.0 + 0.0j
            for summed in np.ndindex(*traced_dims):
                row = [0] * n
                col = [0] * n
                for pos, value in zip(keep, row_kept):
                    row[pos] = value
                for pos, value in zip(keep, col_kept):
                    col[pos] = value
                for pos, value in zip(traced, summed):
                    row[pos] = value
                    col[pos] = value
                total += mat[flat_index(row, dims), flat_index(col, dims)]
            out[flat_index(row_kept, kept_dims), flat_index(col_kept, kept_dims)] = total
    return out


def iter_candidates(shape: SystemShape) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The flat search oracle: every candidate's per-party index subsets in
    canonical order, lexicographic over (party position, subset bitmask
    ascending) with the first party most significant."""
    per_party = [
        [tuple(i for i in range(d) if (mask >> i) & 1) for mask in range(1, 1 << d)]
        for d in shape.dims
    ]
    return itertools.product(*per_party)


# ---------------------------------------------------------------------------
# Planted distillable-subspace instances
# ---------------------------------------------------------------------------

PLANT_SHAPES = [
    SystemShape.of(("A", 2), ("B", 2), ("C", 2)),
    SystemShape.of(("A", 3), ("B", 3)),
    SystemShape.of(("A", 2), ("B", 3)),
]


def planted_instance(rng: np.random.Generator):
    """A rank-2 state hiding a pure entangled state on a basis-aligned subspace.

    Returns ``(state, planted_indices)`` where the state is
    ``q [psi] + (1-q) [product]`` with psi entangled inside the planted
    index sets and the product vector orthogonal to them (it uses an index
    outside the planted set on at least one party).
    """
    shape = PLANT_SHAPES[rng.integers(len(PLANT_SHAPES))]
    dims = shape.dims
    while True:
        sizes = [int(rng.integers(1, d + 1)) for d in dims]
        if sum(1 for s in sizes if s >= 2) >= 2 and any(s < d for s, d in zip(sizes, dims)):
            break
    index_sets = [tuple(sorted(rng.choice(d, size=s, replace=False).tolist())) for s, d in zip(sizes, dims)]

    sub_dim = int(np.prod(sizes))
    embed = np.zeros(shape.total_dim, dtype=np.complex128)
    while True:
        coeffs = random_pure_vector(rng, sub_dim)
        embed[:] = 0.0
        for pos, local in enumerate(np.ndindex(*sizes)):
            global_idx = flat_index([s[i] for s, i in zip(index_sets, local)], dims)
            embed[global_idx] = coeffs[pos]
        psi = PureState(shape, embed.copy())
        reduced_ranks = []
        for p in shape.parties:
            red = psi.reduced([p.label])
            reduced_ranks.append(np.linalg.matrix_rank(red.mat, tol=1e-9))
        if any(r > 1 for r in reduced_ranks):
            break

    strict = [i for i, (s, d) in enumerate(zip(sizes, dims)) if s < d]
    off_party = int(rng.choice(strict))
    product_idx = []
    for i, (s, d) in enumerate(zip(index_sets, dims)):
        if i == off_party:
            outside = [j for j in range(d) if j not in s]
            product_idx.append(int(rng.choice(outside)))
        else:
            product_idx.append(int(rng.integers(d)))
    product = np.zeros(shape.total_dim, dtype=np.complex128)
    product[flat_index(product_idx, dims)] = 1.0

    q = float(rng.uniform(0.2, 0.8))
    state = DensityMatrix.mixture(shape, [(q, psi.amplitudes), (1.0 - q, product)])
    return state, tuple(index_sets)


def certificate_summary(cert) -> tuple:
    return (
        cert.subspace.basis_indices,
        round(cert.outcome.weight, 10),
        cert.outcome.signature,
    )


# ---------------------------------------------------------------------------
# Reference text report and contraction
# ---------------------------------------------------------------------------


def _fmt_scalar_reference(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return "none"
    return str(value)


def _is_scalar_reference(value) -> bool:
    return not isinstance(value, (dict, list, tuple))


def render_lines_reference(value, indent: int) -> list[str]:
    """The text writer's lines for a dict (``key: ...``) or a sequence
    (``- ...``) of values, written as its own recursion over the tree."""
    pad = "  " * indent
    if isinstance(value, dict):
        entries = [(f"{key}:", val) for key, val in value.items()]
    else:
        entries = [("-", item) for item in value]
    lines: list[str] = []
    for head, val in entries:
        if _is_scalar_reference(val):
            lines.append(f"{pad}{head} {_fmt_scalar_reference(val)}")
        elif isinstance(val, (list, tuple)) and all(_is_scalar_reference(v) for v in val):
            lines.append(f"{pad}{head} [{', '.join(_fmt_scalar_reference(v) for v in val)}]")
        elif not val:
            lines.append(f"{pad}{head} {{}}")
        else:
            lines.append(f"{pad}{head}")
            lines.extend(render_lines_reference(val, indent + 1))
    return lines


def render_report_reference(report) -> str:
    """The text of a ``cli.Report``: its command, inputs, results, warnings
    and elapsed milliseconds."""
    lines = [f"command: {report.command}", "inputs:"]
    lines.extend(render_lines_reference(report.inputs, 1))
    lines.append("results:")
    lines.extend(render_lines_reference(report.results, 1))
    if report.warnings:
        lines.append("warnings:")
        lines.extend(render_lines_reference(report.warnings, 1))
    else:
        lines.append("warnings: []")
    lines.append(f"elapsed ms: {report.timing_ms:.12g}")
    return "\n".join(lines)


def contract_reference(tensor: np.ndarray, mats) -> np.ndarray:
    """The search screen's contraction as a chain of ``np.tensordot``: each
    matrix sums the leading axis against its rows, and its new axis goes
    last."""
    for m in mats:
        tensor = np.tensordot(tensor, m, axes=(0, 1))
    return tensor


def spy_on_the_general_path(monkeypatch) -> list[str]:
    """Record, in order, each call of ``LocalSubspace.compression`` (as
    "compression") and of ``states._power_sandwich``, under each name it is
    imported by (as "sandwich")."""
    calls = []
    compression = LocalSubspace.compression
    monkeypatch.setattr(LocalSubspace, "compression", lambda self: calls.append("compression") or compression(self))
    sandwich = states._power_sandwich
    for module in (states, subspaces):
        monkeypatch.setattr(module, "_power_sandwich", lambda *args: calls.append("sandwich") or sandwich(*args))
    return calls


def count_solver_calls(monkeypatch) -> dict[str, int]:
    """Count the ``np.linalg`` ``svd``, ``eigvalsh`` and ``eigh`` calls made
    from here on."""
    calls = {"svd": 0, "eigvalsh": 0, "eigh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def count_opens(monkeypatch) -> dict[str, int]:
    """Count the ``open`` calls made from here on, by absolute path."""
    calls: dict[str, int] = {}
    opener = builtins.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)):
            path = os.path.abspath(os.fsdecode(file))
            calls[path] = calls.get(path, 0) + 1
        return opener(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    return calls
