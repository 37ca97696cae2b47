"""Local product operators ``A (x) B (x) C (x) ...``.

Application to density matrices with outcome probability, the canonical
decomposition of a local measurement operator into a projector, a filter
and a unitary, full-rank tests, and the rank-preservation verifier used by
the property suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ImpossibleOutcomeError, InvariantViolation
from .linalg import (
    DEFAULT_TOLERANCE,
    ZERO_WEIGHT,
    Tolerance,
    above_rank_cutoff,
    as_matrix,
    dagger,
    identity,
    kron_all,
    numerical_rank,
    singular_values,
    svd,
)
from .states import DensityMatrix, PureState, SystemShape, _post_select

SPECTRAL_NORM_SLACK = 1e-9

#: Largest entry of ``reconstruct() - matrix`` that ``decompose`` accepts: a
#: fixed self-check of the SVD's closed form, not a caller's tolerance.
RECONSTRUCTION_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class LocalFactor:
    """One party's factor of a product operator.

    The matrix must act on that party's local space with spectral norm at
    most 1, so that the product operator is a legal measurement-operator
    component and probabilities stay in [0, 1].  ``scale`` records the
    divisor applied when the factor was built via :meth:`from_matrix` from
    an arbitrary matrix (1.0 when none was needed).
    """

    party: str
    mat: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        mat = as_matrix(self.mat)
        if mat.shape[0] != mat.shape[1]:
            raise InvariantViolation("shape", f"factor for party {self.party!r} must be square")
        top = singular_values(mat)
        if top.size and float(top[0]) > 1.0 + SPECTRAL_NORM_SLACK:
            raise InvariantViolation(
                "spectral-norm",
                f"factor for party {self.party!r} has spectral norm {float(top[0]):.6g} > 1",
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_matrix(cls, party: str, mat) -> "LocalFactor":
        """Build a factor from an arbitrary matrix, rescaling if needed.

        Rescaling changes outcome probabilities but not post-measurement
        states; the applied divisor is recorded in ``scale``.
        """
        mat = as_matrix(mat)
        s = singular_values(mat)
        top = float(s[0]) if s.size else 0.0
        if top <= 1.0 + SPECTRAL_NORM_SLACK:
            return cls(party, mat)
        return cls(party, mat / top, scale=top)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class ProductOperator:
    """Exactly one :class:`LocalFactor` per party, in shape order."""

    factors: tuple[LocalFactor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise InvariantViolation("factors", "a product operator needs at least one factor")
        labels = [f.party for f in factors]
        if len(set(labels)) != len(labels):
            raise InvariantViolation("labels", f"duplicate party labels in factors: {labels}")

    @classmethod
    def from_parts(cls, shape: SystemShape, parts: Mapping[str, np.ndarray]) -> "ProductOperator":
        """Named factors with identity filled in for every unnamed party."""
        unknown = set(parts) - set(shape.labels)
        if unknown:
            raise InvariantViolation("labels", f"unknown parties {sorted(unknown)}")
        factors = []
        for p in shape.parties:
            if p.label in parts:
                factors.append(LocalFactor(p.label, parts[p.label]))
            else:
                factors.append(LocalFactor(p.label, identity(p.dim)))
        return cls(tuple(factors))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.party for f in self.factors)

    def matrix(self, shape: SystemShape) -> np.ndarray:
        """The full operator on ``shape``; validates labels and sides."""
        if self.labels != shape.labels:
            raise InvariantViolation(
                "labels",
                f"operator parties {self.labels} do not match shape parties {shape.labels}",
            )
        for f, p in zip(self.factors, shape.parties):
            if f.dim != p.dim:
                raise InvariantViolation(
                    "dimension",
                    f"factor for party {p.label!r} has side {f.dim}, party dim is {p.dim}",
                )
        return kron_all(f.mat for f in self.factors)


def apply(op: ProductOperator, rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Apply ``M rho M†`` and renormalize; returns the state and probability.

    The probability is ``tr(M rho M†)``.  Raises
    :class:`~dsskit.errors.ImpossibleOutcomeError` when it does not exceed
    the zero-weight threshold, carrying the raw trace.
    """
    probability, out = _post_select(rho, op.matrix(rho.shape), rho.shape)
    if out is None:
        raise ImpossibleOutcomeError(probability)
    return out, probability


def apply_to_pure(op: ProductOperator, psi: PureState) -> tuple[PureState, float]:
    """Apply ``M |psi>`` and renormalize; probability is the squared norm."""
    m = op.matrix(psi.shape)
    out = m @ psi.amplitudes
    probability = float(np.real(np.vdot(out, out)))
    if probability <= ZERO_WEIGHT:
        raise ImpossibleOutcomeError(probability)
    return PureState(psi.shape, out / np.sqrt(probability)), probability


# ---------------------------------------------------------------------------
# Canonical projector / filter / unitary decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LpoLfoLuo:
    """A local operator factored as ``unitary . filter . projector``.

    ``lpo`` projects onto the retained input subspace, ``lfo`` reweights the
    retained basis directions (its nonzero singular values are the original
    operator's), ``luo`` rotates the retained directions onto the output
    directions, completed deterministically on the orthogonal complement.
    ``retained_basis`` holds the retained input directions as columns and
    ``weights`` their filter coefficients, descending.
    """

    lpo: np.ndarray
    lfo: np.ndarray
    luo: np.ndarray
    retained_dim: int
    retained_basis: np.ndarray
    weights: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.luo @ self.lfo @ self.lpo


def _complete_unitary(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary.

    Appends standard basis vectors in index order, orthonormalizing each
    against the basis built so far (two projection passes for stability) and
    skipping those that become numerically dependent.  The rule is
    deterministic, so decompositions are reproducible.
    """
    d, r = cols.shape
    basis = [cols[:, i].copy() for i in range(r)]
    for j in range(d):
        if len(basis) == d:
            break
        v = np.zeros(d, dtype=np.complex128)
        v[j] = 1.0
        for _ in range(2):
            for b in basis:
                v = v - b * np.vdot(b, v)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-7:
            basis.append(v / nrm)
    if len(basis) != d:
        raise InvariantViolation("orthonormal", "failed to complete an orthonormal basis")
    return np.column_stack(basis)


def decompose(factor: LocalFactor | np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> LpoLfoLuo:
    """Factor a local operator into projector, filter and unitary parts.

    Writes the operator as a weighted sum of |out_j><in_j| via its singular
    value decomposition.  The projector keeps span{|in_j>}, the filter is
    the positive part V_r S_r V_r† on that span, and the unitary maps each
    |in_j> to |out_j>, completed on the complement.  Their product
    reconstructs the operator to 1e-9.
    """
    mat = factor.mat if isinstance(factor, LocalFactor) else as_matrix(factor)
    if mat.shape[0] != mat.shape[1]:
        raise InvariantViolation("shape", "decompose needs a square operator")
    u, s, v = svd(mat)
    r = int(np.count_nonzero(above_rank_cutoff(s, tol.rank_rtol)))
    if r == 0:
        raise InvariantViolation("nonzero", "cannot decompose the zero operator")
    ur = u[:, :r]
    vr = v[:, :r]
    lpo = vr @ dagger(vr)
    lfo = vr @ np.diag(s[:r]) @ dagger(vr)
    luo = _complete_unitary(ur) @ dagger(_complete_unitary(vr))
    result = LpoLfoLuo(
        lpo=lpo,
        lfo=lfo,
        luo=luo,
        retained_dim=r,
        retained_basis=vr,
        weights=s[:r].copy(),
    )
    residual = float(np.max(np.abs(result.reconstruct() - mat)))
    if residual > RECONSTRUCTION_ATOL:
        raise InvariantViolation(
            "reconstruction", f"decomposition residual {residual:.3e} exceeds 1e-9"
        )
    return result


@dataclass(frozen=True)
class RankPreservationReport:
    """Outcome of the rank-preservation check for one (state, operator) pair.

    ``consistent`` is vacuously true when the operator is not full rank;
    otherwise it requires the rank to be unchanged.  A full-rank product
    operator that changed the rank would contradict the underlying
    preservation law, so a ``False`` here is a falsifier.
    """

    rank_before: int
    rank_after: int
    full_rank: bool
    consistent: bool


def rank_preservation_report(
    rho: DensityMatrix, op: ProductOperator, tol: Tolerance = DEFAULT_TOLERANCE
) -> RankPreservationReport:
    """Apply ``op`` to ``rho`` and compare numerical ranks before and after."""
    full_rank = all(numerical_rank(f.mat, tol) == f.dim for f in op.factors)
    rank_before = numerical_rank(rho.mat, tol)
    out, _ = apply(op, rho)
    rank_after = numerical_rank(out.mat, tol)
    consistent = (not full_rank) or rank_before == rank_after
    return RankPreservationReport(rank_before, rank_after, full_rank, consistent)
