"""Entanglement diagnostics.

Dimension signatures (per-party reduced ranks of a pure state), Schmidt
decomposition, the signature-preservation verifier, two-qubit concurrence
and entanglement of formation, and the filter-upgrade comparison that pairs
a specific rank-2 mixture with the local filter raising its entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, sqrt
from typing import Sequence

import numpy as np

from .errors import InvariantViolation
from .linalg import DEFAULT_TOLERANCE, Tolerance, above_rank_cutoff, kron_all, numerical_rank
from .localops import ProductOperator, apply, apply_to_pure
from .states import DensityMatrix, PureState, bell_state, fidelity_with_pure, filter_example

# Spin-flip matrix for the two-qubit concurrence: Y (x) Y with
# Y = [[0, -i], [i, 0]].  Complex conjugation is taken in the computational
# basis, the standard convention for this formula.
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SPIN_FLIP = kron_all((_Y, _Y))

#: The local filter used by the upgrade example: (1/2)|0><0| + (sqrt(3)/2)|1><1|.
FILTER_UPGRADE_MATRIX = np.diag([0.5, sqrt(3.0) / 2.0]).astype(np.complex128)


def _cut_ranks(amplitudes: np.ndarray, dims: Sequence[int], rtol: float) -> np.ndarray:
    """Rank at each single-party cut of one or a stack of state vectors.

    ``amplitudes`` has shape ``(..., prod(dims))``.  At each party's cut the
    amplitude tensor is reshaped to a (party) x (rest) matrix; its squared
    singular values are the eigenvalues of the party's reduced state, and
    the rank counts those :func:`~dsskit.linalg.above_rank_cutoff` keeps,
    as :func:`~dsskit.linalg.numerical_rank` does for the reduced state.
    Returns an integer array of shape ``(..., len(dims))``.
    """
    batch = amplitudes.shape[:-1]
    tensor = amplitudes.reshape(batch + tuple(dims))
    ranks = []
    for axis, d in enumerate(dims, start=len(batch)):
        cut = np.moveaxis(tensor, axis, len(batch)).reshape(batch + (d, -1))
        s2 = np.linalg.svd(cut, compute_uv=False) ** 2
        ranks.append(np.count_nonzero(above_rank_cutoff(s2, rtol), axis=-1))
    return np.stack(ranks, axis=-1)


def dimension_signature(psi: PureState, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[int, ...]:
    """Per-party reduced ranks ``(n_A, n_B, ...)`` of a pure state.

    Every entry is at least 1 and at most the party's dimension; an entry
    above 1 witnesses entanglement across that party's cut.
    """
    ranks = _cut_ranks(psi.amplitudes, psi.shape.dims, tol.rank_rtol)
    return tuple(int(n) for n in ranks)


def is_entangled_signature(signature: Sequence[int]) -> bool:
    return any(n > 1 for n in signature)


def schmidt(
    psi: PureState,
    grouping: tuple[Sequence[str], Sequence[str]] | None = None,
) -> np.ndarray:
    """Schmidt coefficients of a bipartite pure state, descending.

    The amplitude vector is reshaped to a (first party) x (second party)
    matrix and its singular values returned; their squares sum to 1.  For
    more than two parties a ``grouping`` must name the two sides of the cut
    explicitly (every party exactly once, in shape order within each side).
    """
    labels = psi.shape.labels
    if grouping is None:
        if len(labels) != 2:
            raise InvariantViolation(
                "grouping",
                f"state has {len(labels)} parties; pass grouping=((...), (...)) to pick the cut",
            )
        grouping = ((labels[0],), (labels[1],))
    left, right = (tuple(g) for g in grouping)
    if sorted(left + right) != sorted(labels) or set(left) & set(right):
        raise InvariantViolation("grouping", "grouping must split the parties into two disjoint sides")
    order = [psi.shape.party_index(lbl) for lbl in left + right]
    dims = psi.shape.dims
    tensor = psi.amplitudes.reshape(dims).transpose(order)
    d_left = int(np.prod([dims[i] for i in order[: len(left)]], dtype=int))
    coeffs = np.linalg.svd(tensor.reshape(d_left, -1), compute_uv=False)
    return coeffs


@dataclass(frozen=True)
class SignaturePreservationReport:
    signature_before: tuple[int, ...]
    signature_after: tuple[int, ...]
    full_rank: bool
    consistent: bool


def signature_preservation_report(
    psi: PureState, op: ProductOperator, tol: Tolerance = DEFAULT_TOLERANCE
) -> SignaturePreservationReport:
    """Compare a pure state's dimension signature before and after ``op``.

    ``consistent`` is vacuous unless every factor has full rank, in which
    case the signatures must match exactly.
    """
    full_rank = all(numerical_rank(f.mat, tol) == f.dim for f in op.factors)
    before = dimension_signature(psi, tol)
    out, _ = apply_to_pure(op, psi)
    after = dimension_signature(out, tol)
    consistent = (not full_rank) or before == after
    return SignaturePreservationReport(before, after, full_rank, consistent)


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.shape.dims != (2, 2):
        raise InvariantViolation(
            "shape", f"two qubits required, got per-party dims {rho.shape.dims}"
        )


def concurrence(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Two-qubit concurrence ``max(0, l1 - l2 - l3 - l4)``.

    The ``l_i`` are the descending square roots of the eigenvalues of
    ``rho (Y x Y) rho* (Y x Y)``, with conjugation in the computational
    basis.  They are computed as the singular values of
    ``sqrt(rho) (Y x Y) sqrt(rho)*``, which has the same spectrum squared
    but stays Hermitian-friendly numerically.
    """
    _require_two_qubits(rho)
    evals, evecs = rho.eigh()
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ np.conj(evecs).T
    lam = np.linalg.svd(root @ _SPIN_FLIP @ np.conj(root), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def binary_entropy(x: float) -> float:
    """``h(x) = -x log2 x - (1-x) log2 (1-x)`` with the 0 log 0 = 0 convention."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise InvariantViolation("probability", f"entropy argument must lie in [0, 1], got {x}")
    out = 0.0
    if x > 0.0:
        out -= x * log2(x)
    if x < 1.0:
        out -= (1.0 - x) * log2(1.0 - x)
    return out


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation ``h((1 + sqrt(1 - C^2)) / 2)`` in bits."""
    c = float(c)
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise InvariantViolation("concurrence", f"concurrence must lie in [0, 1], got {c}")
    c = min(c, 1.0)
    return binary_entropy((1.0 + sqrt(max(0.0, 1.0 - c * c))) / 2.0)


@dataclass(frozen=True)
class EntanglementReport:
    """Two-qubit concurrence plus the entanglement of formation it implies."""

    concurrence: float
    eof: float

    def __post_init__(self):
        expected = eof_from_concurrence(self.concurrence)
        if abs(expected - self.eof) > 1e-12:
            raise InvariantViolation(
                "eof", f"eof {self.eof!r} inconsistent with concurrence {self.concurrence!r}"
            )


def entanglement_of_formation(
    rho: DensityMatrix, tol: Tolerance = DEFAULT_TOLERANCE
) -> EntanglementReport:
    """Concurrence and entanglement of formation of a two-qubit state.

    Refuses anything that is not exactly two qubits; no multipartite
    generalization is attempted.
    """
    _require_two_qubits(rho)
    c = concurrence(rho, tol)
    return EntanglementReport(concurrence=c, eof=eof_from_concurrence(c))


# ---------------------------------------------------------------------------
# Filter-upgrade comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterComparison:
    """Before/after record of the local-filter entanglement upgrade."""

    lam: float
    eof_before: float
    eof_after: float
    concurrence_before: float
    concurrence_after: float
    filtered_state: DensityMatrix
    success_probability: float
    lambda_prime: float

    @property
    def improved(self) -> bool:
        return self.eof_after > self.eof_before


def filter_upgrade_operator(shape) -> ProductOperator:
    """The diagonal filter on party A paired with :func:`filter_example`."""
    return ProductOperator.from_parts(shape, {"A": FILTER_UPGRADE_MATRIX})


def filter_comparison(lam: float, tol: Tolerance = DEFAULT_TOLERANCE) -> FilterComparison:
    """Apply the diagonal filter to the rank-2 mixture and compare E_F.

    The source state is ``lam [psi] + (1-lam) [|01>]`` with
    ``psi = (sqrt(3)/2)|00> + (1/2)|11>``.  Filtering with
    ``(1/2)|0><0| + (sqrt(3)/2)|1><1|`` on party A equalizes psi's Schmidt
    coefficients, giving ``lam' [phi+] + (1-lam') [|01>]`` with
    ``lam' = 3 lam / (lam + 2)`` at success probability ``(lam + 2)/8``.
    ``lambda_prime`` is measured off the filtered state rather than taken
    from the closed form.
    """
    sigma = filter_example(lam)
    before = entanglement_of_formation(sigma, tol)
    filtered, probability = apply(filter_upgrade_operator(sigma.shape), sigma)
    after = entanglement_of_formation(filtered, tol)
    lambda_prime = fidelity_with_pure(filtered, bell_state("phi+"))
    return FilterComparison(
        lam=float(lam),
        eof_before=before.eof,
        eof_after=after.eof,
        concurrence_before=before.concurrence,
        concurrence_after=after.concurrence,
        filtered_state=filtered,
        success_probability=probability,
        lambda_prime=lambda_prime,
    )


def filter_comparison_curve(lams: Sequence[float], tol: Tolerance = DEFAULT_TOLERANCE) -> list[FilterComparison]:
    """The comparison evaluated on a grid of mixing parameters."""
    return [filter_comparison(lam, tol) for lam in lams]
