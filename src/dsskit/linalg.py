"""Dense complex matrix kernel.

Tensor products, partial traces, Hermitian eigendecomposition, singular
value decomposition and tolerance-based numerical rank: the substrate all
higher-level modules compute on.  Everything here is a pure function on
plain ``numpy`` arrays (complex128, row-major); the index convention for
composite systems is most-significant-first, i.e. the left tensor factor
owns the high bits of a flat index.

Matrices are capped at side ``MAX_SIDE``.  The problem sizes this package
targets never exceed a few qubits per party, so a dense representation is
the honest choice and anything larger signals a modelling mistake.
"""

from __future__ import annotations

import numbers
import string
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionCapError, InvariantViolation

MAX_SIDE = 4096

#: Below this, a projector weight / branch probability counts as zero.
ZERO_WEIGHT = 1e-12

#: Largest entry of ``V†V - I`` for orthonormal columns ``V``: a future
#: ``Tolerance`` field (the check of caller-supplied bases and vectors).
ORTHONORMAL_ATOL = 1e-9

_EINSUM_LETTERS = string.ascii_lowercase + string.ascii_uppercase


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds for rank, hermiticity, positivity and purity checks.

    ``rank_rtol`` is a relative singular-value cutoff; the ``*_atol`` fields
    are absolute.  Double precision leaves several orders of magnitude of
    headroom over the defaults at the matrix sizes handled here.
    """

    rank_rtol: float = 1e-9
    herm_atol: float = 1e-9
    psd_atol: float = 1e-9
    purity_atol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rtol", "herm_atol", "psd_atol", "purity_atol"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise InvariantViolation(
                    name, f"{name} must lie in [0, 1), got {value!r}"
                )


DEFAULT_TOLERANCE = Tolerance()


def as_matrix(m, *, cap: int = MAX_SIDE) -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex array, enforcing the size cap."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim == 1:
        raise InvariantViolation("shape", "expected a 2-D matrix, got a vector")
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvariantViolation(
            "shape", f"expected a nonempty 2-D matrix, got shape {arr.shape}"
        )
    if arr.shape[0] > cap or arr.shape[1] > cap:
        raise DimensionCapError(
            f"matrix of shape {arr.shape} exceeds the dense size cap {cap}"
        )
    if not np.isfinite(arr).all():
        raise InvariantViolation("finite", "matrix entries must be finite")
    return arr


def as_vector(v, *, cap: int = MAX_SIDE) -> np.ndarray:
    """Coerce ``v`` to a finite 1-D complex array."""
    arr = np.asarray(v, dtype=np.complex128).reshape(-1)
    if arr.size == 0 or arr.size > cap:
        raise InvariantViolation("shape", f"vector length {arr.size} out of range")
    if not np.isfinite(arr).all():
        raise InvariantViolation("finite", "vector entries must be finite")
    return arr


def as_int(value, name: str) -> int:
    """``value`` as an ``int``; anything else, a float or a bool included, is
    an :class:`InvariantViolation` naming ``name``, never a truncated ``int()``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvariantViolation(name, f"{name}: expected an integer, got {value!r}")
    return int(value)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def require_orthonormal(v: np.ndarray, invariant: str, message: str) -> None:
    """Raise :class:`InvariantViolation` unless the columns of ``v`` are
    orthonormal to ``ORTHONORMAL_ATOL``; ``invariant`` names the check for
    the caller."""
    deviation = float(np.max(np.abs(dagger(v) @ v - np.eye(v.shape[1]))))
    if deviation > ORTHONORMAL_ATOL:
        raise InvariantViolation(invariant, f"{message} (deviation {deviation:.3e})")


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices: ``kron_all((a, b))``."""
    return kron_all((a, b))


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty sequence of matrices.

    The left factor is most significant: row index ``(i_a, i_b)`` maps to
    ``i_a * b_rows + i_b``, matching the flat-index convention used for
    multipartite states throughout.  Each factor is checked once by
    :func:`as_matrix`, and the side of the full product against
    ``MAX_SIDE`` before any product is formed.  Each product is one
    broadcast multiply and reshape: every entry is the same single product
    ``np.kron`` forms, so the result is bit-identical to it, without its
    per-call ``expand_dims`` overhead.  This is the package's one Kronecker
    kernel; no other module calls ``np.kron``.
    """
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise InvariantViolation("factors", "kron_all needs at least one factor")
    rows = prod(m.shape[0] for m in mats)
    cols = prod(m.shape[1] for m in mats)
    if rows > MAX_SIDE or cols > MAX_SIDE:
        raise DimensionCapError(
            f"kron product of shape ({rows}, {cols}) exceeds the cap {MAX_SIDE}"
        )
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(
            out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        )
    return out


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in most-significant-first order;
    ``keep`` holds the indices of the subsystems to retain, which keep their
    relative order in the result.  The total trace is preserved.  An empty
    ``keep`` is a caller error: the scalar trace has its own accessor.
    """
    m = as_matrix(m)
    dims = tuple(as_int(d, "dims") for d in dims)
    if any(d < 1 for d in dims):
        raise InvariantViolation("dims", f"subsystem dims must be >= 1, got {dims}")
    total = prod(dims)
    if m.shape != (total, total):
        raise InvariantViolation(
            "shape",
            f"matrix side {m.shape} does not match product of dims {dims} = {total}",
        )
    keep = sorted(set(as_int(k, "keep") for k in keep))
    if not keep:
        raise InvariantViolation("keep", "keep set must be nonempty")
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise InvariantViolation("keep", f"keep indices {keep} out of range for {n} subsystems")
    if 2 * n > len(_EINSUM_LETTERS):
        raise DimensionCapError(f"too many subsystems ({n}) for partial_trace")

    keepset = set(keep)
    row = list(_EINSUM_LETTERS[:n])
    col = []
    out_row = []
    out_col = []
    nxt = n
    for i in range(n):
        if i in keepset:
            letter = _EINSUM_LETTERS[nxt]
            nxt += 1
            col.append(letter)
            out_row.append(row[i])
            out_col.append(letter)
        else:
            col.append(row[i])  # repeated letter contracts the traced subsystem
    subscript = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    reduced = np.einsum(subscript, m.reshape(dims + dims))
    side = prod(dims[k] for k in keep)
    return reduced.reshape(side, side)


def eig_hermitian(m, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, V)`` with ``m = V @ diag(w) @ V†`` and orthonormal
    eigenvector columns.  Rejects inputs whose anti-Hermitian part exceeds
    ``tol.herm_atol``.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InvariantViolation("shape", "eig_hermitian needs a square matrix")
    deviation = float(np.max(np.abs(m - dagger(m))))
    if deviation > tol.herm_atol:
        raise InvariantViolation(
            "hermitian", f"matrix is not Hermitian (max deviation {deviation:.3e})"
        )
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = left @ diag(s) @ right†``.

    ``left`` and ``right`` have orthonormal columns; ``s`` is descending and
    nonnegative.
    """
    m = as_matrix(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, dagger(vh)


def singular_values(m) -> np.ndarray:
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def numerical_rank(m, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Count singular values above ``rank_rtol * max(1, largest singular value)``,
    the cutoff of :func:`above_rank_cutoff`."""
    return int(np.count_nonzero(above_rank_cutoff(singular_values(m), tol.rank_rtol)))


def above_rank_cutoff(values: np.ndarray, rtol: float) -> np.ndarray:
    """Mask of the ``values`` above ``rtol * max(1, largest)`` along the last
    axis: the rank cutoff of every numerical rank in the package.  The floor
    of 1 makes the cutoff absolute for small values, so a near-zero matrix
    has rank 0 instead of being rescaled into full rank."""
    return values > rtol * np.maximum(1.0, values.max(axis=-1, keepdims=True))


def identity(n: int) -> np.ndarray:
    return np.eye(as_int(n, "n"), dtype=np.complex128)
