"""Entanglement diagnostics.

Dimension signatures (per-party reduced ranks of a pure state), Schmidt
decomposition, the signature-preservation verifier, two-qubit concurrence
and entanglement of formation, and the filter-upgrade comparison that pairs
a specific rank-2 mixture with the local filter raising its entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2, prod, sqrt
from typing import Sequence

import numpy as np

from .errors import InvariantViolation
from .linalg import DEFAULT_TOLERANCE, Tolerance, above_rank_cutoff, dagger, kron_all, numerical_rank
from .localops import ProductOperator, apply_to_pure
from .states import (
    DensityMatrix,
    PureState,
    SystemShape,
    _filter_example_stack,
    _filter_lambda,
    _normalized_stack,
    bell_state,
)

# Spin-flip matrix for the two-qubit concurrence: Y (x) Y with
# Y = [[0, -i], [i, 0]].  Complex conjugation is taken in the computational
# basis, the standard convention for this formula.
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SPIN_FLIP = kron_all((_Y, _Y))

#: How far above 1 a concurrence may come out of roundoff before
#: ``eof_from_concurrence`` refuses it: a fixed slack of the closed form's
#: domain, not a caller's tolerance.
CONCURRENCE_SLACK = 1e-12

#: Largest gap between a report's EoF and the closed form of its concurrence:
#: a fixed self-check of ``EntanglementReport``, not a caller's tolerance.
EOF_CHECK_ATOL = 1e-12

#: The local filter used by the upgrade example: (1/2)|0><0| + (sqrt(3)/2)|1><1|.
FILTER_UPGRADE_MATRIX = np.diag([0.5, sqrt(3.0) / 2.0]).astype(np.complex128)


def _cut_ranks(groups: Sequence[tuple[np.ndarray, Sequence[int]]], rtol: float) -> np.ndarray:
    """Rank at each single-party cut of stacks of state vectors.

    Each of ``groups`` pairs a stack ``(n, prod(dims))`` of amplitudes with
    its per-party ``dims``; every group has the same number of parties.  At
    each party's cut the amplitude tensor is reshaped to a (party) x (rest)
    matrix; its squared singular values are the eigenvalues of the party's
    reduced state, and the rank counts those
    :func:`~dsskit.linalg.above_rank_cutoff` keeps, as
    :func:`~dsskit.linalg.numerical_rank` does for the reduced state.  Every
    cut of every group, turned wide and padded with zeros to one shape,
    goes into a single stacked SVD call; the padding adds only zero
    singular values, and each matrix is decomposed on its own.  Returns the
    ranks ``(sum of n, parties)``, the groups' rows in order.
    """
    sides = [(d, prod(dims) // d) for _, dims in groups for d in dims]
    parties = range(len(groups[0][1]))
    count = sum(len(amplitudes) for amplitudes, _ in groups)
    cuts = np.zeros((count, len(parties), max(map(min, sides)), max(map(max, sides))), dtype=np.complex128)
    row, side = 0, iter(sides)
    for amplitudes, dims in groups:
        n = len(amplitudes)
        tensor = amplitudes.reshape((n,) + tuple(dims))
        for p, (d, rest) in zip(parties, side):
            cut = tensor.transpose([0, p + 1] + [q + 1 for q in parties if q != p]).reshape(n, d, rest)
            if d <= rest:
                cuts[row : row + n, p, :d, :rest] = cut
            else:
                cuts[row : row + n, p, :rest, :d] = cut.swapaxes(1, 2)
        row += n
    s2 = np.linalg.svd(cuts, compute_uv=False) ** 2
    return above_rank_cutoff(s2, rtol).sum(axis=-1)


def dimension_signature(psi: PureState, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[int, ...]:
    """Per-party reduced ranks ``(n_A, n_B, ...)`` of a pure state.

    Every entry is at least 1 and at most the party's dimension; an entry
    above 1 witnesses entanglement across that party's cut.
    """
    ranks = _cut_ranks([(psi.amplitudes[np.newaxis], psi.shape.dims)], tol.rank_rtol)[0]
    return tuple(int(n) for n in ranks)


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


def _concurrence_stack(mats: np.ndarray) -> np.ndarray:
    """Concurrences of a stack ``(n, 4, 4)`` of two-qubit density matrices:
    one stacked ``eigh`` for the square roots, the root products as one
    batched matmul, and one stacked SVD call.  Each matrix is decomposed
    on its own and every other step works entry by entry, so a matrix's
    concurrence does not depend on the rest of the stack."""
    evals, evecs = np.linalg.eigh(mats)
    # Descending, as DensityMatrix.eigh orders them, which fixes the
    # summation order of the root product.
    evals, evecs = evals[:, ::-1], np.ascontiguousarray(evecs[:, :, ::-1])
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))[:, np.newaxis, :]) @ np.conj(evecs).swapaxes(-1, -2)
    lam = np.linalg.svd(root @ _SPIN_FLIP @ np.conj(root), compute_uv=False)
    excess = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return np.where(excess > 0.0, excess, 0.0)


def concurrence(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Two-qubit concurrence ``max(0, l1 - l2 - l3 - l4)``.

    The ``l_i`` are the descending square roots of the eigenvalues of
    ``rho (Y x Y) rho* (Y x Y)``, with conjugation in the computational
    basis.  They are computed as the singular values of
    ``sqrt(rho) (Y x Y) sqrt(rho)*``, which has the same spectrum squared
    but stays Hermitian-friendly numerically: :func:`_concurrence_stack`
    on a stack of one.  ``tol`` reaches no decision, because the formula
    has no threshold.
    """
    _require_two_qubits(rho)
    return float(_concurrence_stack(rho.mat[np.newaxis])[0])


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
    if not 0.0 <= c <= 1.0 + CONCURRENCE_SLACK:
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
        if abs(expected - self.eof) > EOF_CHECK_ATOL:
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


_TWO_QUBITS = SystemShape.qubits("AB")
#: The filter on the two qubits, the matrix :func:`~dsskit.localops.apply` uses.
_FILTER_UPGRADE = filter_upgrade_operator(_TWO_QUBITS).matrix(_TWO_QUBITS)


def filter_comparison(lam: float, tol: Tolerance = DEFAULT_TOLERANCE) -> FilterComparison:
    """Apply the diagonal filter to the rank-2 mixture and compare E_F.

    The source state is ``lam [psi] + (1-lam) [|01>]`` with
    ``psi = (sqrt(3)/2)|00> + (1/2)|11>``.  Filtering with
    ``(1/2)|0><0| + (sqrt(3)/2)|1><1|`` on party A equalizes psi's Schmidt
    coefficients, giving ``lam' [phi+] + (1-lam') [|01>]`` with
    ``lam' = 3 lam / (lam + 2)`` at success probability ``(lam + 2)/8``.
    ``lambda_prime`` is measured off the filtered state rather than taken
    from the closed form.  This is :func:`filter_comparison_curve` of one.
    """
    return filter_comparison_curve([lam], tol)[0]


def filter_comparison_curve(lams: Sequence[float], tol: Tolerance = DEFAULT_TOLERANCE) -> list[FilterComparison]:
    """The comparison evaluated on a grid of mixing parameters, in one
    stacked pass.

    Every ``lam`` is checked as :func:`~dsskit.states.filter_example`
    checks it before any state is built.  The states are built from that
    function's terms and checked as one stack; the filter ``M σ M†`` and
    its renormalization run once over the stack, as
    :func:`~dsskit.localops.apply` runs them on one state; the
    concurrences before and after each take one :func:`_concurrence_stack`
    call; and ``lambda_prime`` is one batched product with the Bell vector.
    Every stacked step works matrix by matrix, so each row does not depend
    on the rest of the grid.  Each ``filtered_state`` owns its matrix.
    """
    lams = np.array([_filter_lambda(lam) for lam in lams])
    if not lams.size:
        return []
    sources = _filter_example_stack(lams)
    # Each weight is (lam + 2)/8 > 1/4, so every state is kept.
    weights, _, filtered = _normalized_stack(_FILTER_UPGRADE @ sources @ dagger(_FILTER_UPGRADE))
    before = _concurrence_stack(sources)
    after = _concurrence_stack(filtered)
    # <phi|σ|phi> as a row times σ times a column: stacked, a 1-D vector
    # times the stack's rows would round differently from the single product.
    phi = bell_state("phi+").amplitudes
    lambda_prime = np.real(np.conj(phi)[np.newaxis] @ filtered @ phi[:, np.newaxis])[:, 0, 0]
    rows = []
    for i, lam in enumerate(lams):
        c_before, c_after = float(before[i]), float(after[i])
        rows.append(
            FilterComparison(
                lam=float(lam),
                eof_before=eof_from_concurrence(c_before),
                eof_after=eof_from_concurrence(c_after),
                concurrence_before=c_before,
                concurrence_after=c_after,
                filtered_state=DensityMatrix._derived(_TWO_QUBITS, filtered[i].copy()),
                success_probability=float(weights[i]),
                lambda_prime=float(lambda_prime[i]),
            )
        )
    return rows
