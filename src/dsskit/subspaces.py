"""Distillable-subspace (DSS) search and certification.

A distillable subspace of a multipartite mixed state is a tensor product of
local subspaces, one per party, onto which the state projects to a pure
entangled state.  This module projects states onto local subspaces and
classifies the outcome, searches for distillable subspaces over subsets of
per-party orthonormal bases, independently re-verifies claimed
certificates, and checks the rank bound every genuine certificate must
satisfy.

The search family is restricted to subsets of supplied per-party bases
(computational by default).  Arbitrary-subspace search is a continuum
problem with no exact algorithm; basis subsets are exact, certifiable and
cover every worked example.  Callers can widen the family by supplying
rotated bases.

Both searches run one pipeline over canonical candidate positions: a
source of positions, an optional screen, and the classification of each
remaining candidate by :func:`project`.  Only their keep tests differ.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from math import prod
from typing import Iterator, Literal, Mapping, Sequence

import numpy as np

from .entanglement import _cut_ranks, concurrence, dimension_signature, is_entangled_signature
from .errors import InvariantViolation, SearchSpaceTooLarge
from .linalg import (
    DEFAULT_TOLERANCE,
    ZERO_WEIGHT,
    Tolerance,
    above_rank_cutoff,
    as_int,
    as_matrix,
    dagger,
    identity,
    kron_all,
    require_orthonormal,
)
from .states import (
    DensityMatrix,
    Party,
    PureState,
    SystemShape,
    _normalized,
    _post_select,
    _power_checks,
    _power_sandwich,
    _power_shape,
    _power_spectrum,
    tensor_power,
)

Classification = Literal["pure-entangled", "pure-product", "mixed", "zero"]

_logger = logging.getLogger("dsskit")

#: Default ceiling on the number of candidate subspaces a search may visit.
CANDIDATE_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class LocalSubspace:
    """Per-party orthonormal vector lists spanning a product subspace.

    ``parties`` pairs each label with a (local dim) x (subspace dim) matrix
    of orthonormal columns.  ``basis_indices`` records, when the subspace
    was carved out of per-party bases by index subsets, which columns were
    taken; it is bookkeeping only.
    """

    parties: tuple[tuple[str, np.ndarray], ...]
    basis_indices: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        cleaned = []
        for label, vecs in self.parties:
            v = as_matrix(vecs)
            if v.shape[1] == 0:
                raise InvariantViolation("vectors", f"party {label!r} has an empty vector list")
            if v.shape[1] > v.shape[0]:
                raise InvariantViolation(
                    "vectors", f"party {label!r} has more vectors than its dimension"
                )
            require_orthonormal(v, "orthonormal", f"party {label!r} vectors are not orthonormal")
            v = v.copy()
            v.setflags(write=False)
            cleaned.append((str(label), v))
        object.__setattr__(self, "parties", tuple(cleaned))

    @classmethod
    def _from_checked(
        cls,
        labels: Sequence[str],
        bases: Sequence[np.ndarray],
        indices: Sequence[tuple[int, ...]],
    ) -> "LocalSubspace":
        """Cut read-only columns ``indices`` out of per-party ``bases`` that
        passed :func:`_resolve_bases`.  With nonempty, in-range and distinct
        indices the columns are orthonormal, so no check runs here."""
        parties = []
        for label, basis, idx in zip(labels, bases, indices):
            vecs = basis[:, list(idx)]
            vecs.setflags(write=False)
            parties.append((label, vecs))
        self = object.__new__(cls)
        object.__setattr__(self, "parties", tuple(parties))
        object.__setattr__(self, "basis_indices", tuple(indices))
        return self

    @classmethod
    def full(cls, shape: SystemShape) -> "LocalSubspace":
        return cls.from_indices(shape, {})

    @classmethod
    def from_indices(
        cls,
        shape: SystemShape,
        indices: Mapping[str, Sequence[int]],
        bases: Mapping[str, np.ndarray] | None = None,
    ) -> "LocalSubspace":
        """Select columns of per-party bases (computational by default).

        Parties missing from ``indices`` keep their full local basis.
        """
        unknown = set(indices) - set(shape.labels)
        if unknown:
            raise InvariantViolation("label", f"unknown parties {sorted(unknown)}")
        resolved = _resolve_bases(shape, bases)
        recorded = []
        for p in shape.parties:
            idx = tuple(as_int(i, "indices") for i in indices.get(p.label, range(p.dim)))
            if not idx:
                raise InvariantViolation("vectors", f"party {p.label!r} has an empty index set")
            if any(i < 0 or i >= p.dim for i in idx):
                raise InvariantViolation(
                    "vectors", f"party {p.label!r} indices {idx} out of range for dim {p.dim}"
                )
            if len(set(idx)) != len(idx):
                raise InvariantViolation("orthonormal", f"party {p.label!r} repeats an index in {idx}")
            recorded.append(idx)
        return cls._from_checked(shape.labels, resolved, recorded)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.parties)

    @property
    def dims(self) -> tuple[int, ...]:
        """Subspace dimension per party."""
        return tuple(v.shape[1] for _, v in self.parties)

    def compression(self) -> np.ndarray:
        """Isometry from subspace coordinates into the ambient space."""
        return kron_all(v for _, v in self.parties)

    def projector(self) -> np.ndarray:
        b = self.compression()
        return b @ dagger(b)

    def subspace_shape(self) -> SystemShape:
        return SystemShape(tuple(Party(label, (v.shape[1],)) for label, v in self.parties))

    def _check_against(self, shape: SystemShape, copies: int = 1) -> None:
        """Raise unless the subspace has ``shape``'s parties in order, each
        of local dimension ``dim**copies`` (its ``copies``-fold power)."""
        if self.labels != shape.labels:
            raise InvariantViolation(
                "labels",
                f"subspace parties {self.labels} do not match state parties {shape.labels}",
            )
        for (label, v), p in zip(self.parties, shape.parties):
            if v.shape[0] != p.dim**copies:
                raise InvariantViolation(
                    "dimension",
                    f"party {label!r} vectors have length {v.shape[0]}, local dim is {p.dim**copies}",
                )


@dataclass(frozen=True, eq=False)
class ProjectionOutcome:
    """Result of projecting a state onto a local product subspace.

    ``weight`` is the trace before renormalization; ``state`` is the
    normalized projection in subspace coordinates (None exactly when the
    classification is "zero"); ``signature`` is the dimension signature of
    the projected pure state, recorded only for pure classifications.
    """

    weight: float
    state: DensityMatrix | None
    classification: Classification
    signature: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.classification == "zero") != (self.state is None):
            raise InvariantViolation("zero", "state must be absent exactly for zero weight")
        if self.classification == "zero" and self.weight != 0.0:
            raise InvariantViolation("zero", "zero classification requires weight 0")
        pure = self.classification in ("pure-entangled", "pure-product")
        if pure != (self.signature is not None):
            raise InvariantViolation("signature", "signature recorded exactly for pure outcomes")


@dataclass(frozen=True, eq=False)
class DssCertificate:
    """A local subspace together with its verified pure projection."""

    subspace: LocalSubspace
    outcome: ProjectionOutcome

    def __post_init__(self):
        if self.outcome.classification not in ("pure-entangled", "pure-product"):
            raise InvariantViolation(
                "classification", "a certificate requires a pure projection outcome"
            )


@dataclass(frozen=True)
class Refusal:
    """Why a claimed certificate failed: zero-weight, mixed, or product."""

    reason: Literal["zero-weight", "mixed", "product"]
    outcome: ProjectionOutcome


def project(
    rho: DensityMatrix,
    subspace: LocalSubspace,
    tol: Tolerance = DEFAULT_TOLERANCE,
    *,
    copies: int = 1,
) -> ProjectionOutcome:
    """Project ``rho``, or its ``copies``-th tensor power, onto the subspace
    and classify the outcome.

    The projection is compressed to subspace coordinates (matrix elements
    between the subspace product vectors).  It is classified pure when the
    top eigenvalue fraction reaches ``1 - purity_atol``; a pure projection
    is entangled when some entry of its dimension signature exceeds 1.

    With ``copies > 1`` the subspace lives on the party-major shape of
    :func:`~dsskit.states.tensor_power`, and the power is never formed: it
    passes the same checks on the single copy, and its compression is
    contracted copy by copy from ``rho`` (:func:`~dsskit.states._power_sandwich`;
    bit-equal to the dense one on computational basis vectors, equal to
    roundoff otherwise).  The classification that follows is the same.
    """
    if copies == 1:
        subspace._check_against(rho.shape)
        weight, state = _post_select(rho, dagger(subspace.compression()), subspace.subspace_shape())
    else:
        copies = _power_checks(rho, copies)
        subspace._check_against(rho.shape, copies)
        out = _power_sandwich(rho, copies, subspace.compression())
        weight, state = _normalized(out, subspace.subspace_shape())
    if state is None:
        return ProjectionOutcome(weight=0.0, state=None, classification="zero")
    evals, evecs = state.eigh()
    if float(evals[0]) >= 1.0 - tol.purity_atol:
        psi = PureState(state.shape, evecs[:, 0])
        signature = dimension_signature(psi, tol)
        cls: Classification = (
            "pure-entangled" if is_entangled_signature(signature) else "pure-product"
        )
        return ProjectionOutcome(weight=weight, state=state, classification=cls, signature=signature)
    return ProjectionOutcome(weight=weight, state=state, classification="mixed")


def check_certificate(
    rho: DensityMatrix,
    subspace: LocalSubspace,
    tol: Tolerance = DEFAULT_TOLERANCE,
    *,
    copies: int = 1,
) -> DssCertificate | Refusal:
    """Independently re-verify a claimed distillable subspace of ``rho``,
    or of its ``copies``-th tensor power.

    Returns a certificate when the projection is pure and entangled, else a
    :class:`Refusal` naming the failed test.  Absence of a certificate is a
    result, not an error.  For a power, :func:`project` works from the
    single copy, so no matrix of the power's side is built.
    """
    outcome = project(rho, subspace, tol, copies=copies)
    if outcome.classification == "zero":
        return Refusal("zero-weight", outcome)
    if outcome.classification == "mixed":
        return Refusal("mixed", outcome)
    if outcome.classification == "pure-product":
        return Refusal("product", outcome)
    return DssCertificate(subspace, outcome)


# ---------------------------------------------------------------------------
# Search over basis subsets
# ---------------------------------------------------------------------------


def _resolve_bases(
    shape: SystemShape, bases: Mapping[str, np.ndarray] | None
) -> list[np.ndarray]:
    """Per-party orthonormal bases as matrices, identity where unspecified."""
    resolved = []
    if bases:
        unknown = set(bases) - set(shape.labels)
        if unknown:
            raise InvariantViolation("label", f"unknown parties in bases: {sorted(unknown)}")
    for p in shape.parties:
        if bases and p.label in bases:
            b = as_matrix(bases[p.label])
            if b.shape != (p.dim, p.dim):
                raise InvariantViolation(
                    "dimension",
                    f"basis for party {p.label!r} must be {p.dim}x{p.dim}, got {b.shape}",
                )
            require_orthonormal(b, "orthonormal", f"basis for party {p.label!r} is not orthonormal")
            resolved.append(b)
        else:
            resolved.append(identity(p.dim))
    return resolved


def _subset_indices(dim: int) -> list[tuple[int, ...]]:
    """All nonempty index subsets of range(dim), by ascending bitmask."""
    out = []
    for mask in range(1, 1 << dim):
        out.append(tuple(i for i in range(dim) if (mask >> i) & 1))
    return out


def candidate_count(shape: SystemShape) -> int:
    return prod((1 << d) - 1 for d in shape.dims)


#: Most restricted-ensemble entries the screen holds at once (16 bytes each),
#: so its working memory stays flat however large a subset-size group is.
SCREEN_CHUNK = 1 << 14


@dataclass
class _ScreenCounts:
    zero: int = 0
    mixed: int = 0
    product: int = 0


class _SearchContext:
    """One search over ``rho^(x copies)``: the cap check on the power's
    shape, the power, the resolved bases and each party's index subsets.

    A candidate is named by its canonical position: lexicographic over
    (party, subset bitmask ascending), the first party most significant.
    """

    def __init__(
        self,
        rho: DensityMatrix,
        copies: int,
        bases: Mapping[str, np.ndarray] | None,
        tol: Tolerance,
        candidate_cap: int,
    ):
        self.count = candidate_count(_power_shape(rho, copies))
        if self.count > candidate_cap:
            raise SearchSpaceTooLarge(self.count, candidate_cap)
        self.rho = tensor_power(rho, copies)
        self.shape = self.rho.shape
        self.tol = tol
        self.bases = _resolve_bases(self.shape, bases)
        self.subsets = [_subset_indices(d) for d in self.shape.dims]
        # by_size[p][k - 1]: the positions of party p's subsets of size k
        # among its subsets, and those subsets as index rows.
        self.by_size = []
        for subsets in self.subsets:
            sizes = np.array([len(idx) for idx in subsets])
            groups = [np.flatnonzero(sizes == k) for k in range(1, len(subsets[-1]) + 1)]
            self.by_size.append([(pos, np.array([subsets[i] for i in pos])) for pos in groups])

    def group(self, sizes: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
        """The candidates whose subset for party ``p`` has ``sizes[p]``
        elements: per party, those subsets as index rows, and the canonical
        positions as an array of one axis per party (ascending in C order)."""
        groups = [table[k - 1] for table, k in zip(self.by_size, sizes)]
        picks = np.ix_(*(pos for pos, _ in groups))
        return [rows for _, rows in groups], np.ravel_multi_index(picks, [len(s) for s in self.subsets])

    def ensemble(self) -> np.ndarray:
        """The power's significant eigenvectors, scaled by sqrt(weight), in
        the product basis with one axis per party: restricting the party axes
        to a candidate's index sets reads off its unnormalized ensemble."""
        evals, evecs = self.rho.eigh()
        keep = above_rank_cutoff(evals, self.tol.rank_rtol)
        weights = evals[keep]
        coords = dagger(kron_all(self.bases)) @ evecs[:, keep]
        scaled = coords * np.sqrt(weights)[np.newaxis, :]
        return np.ascontiguousarray(scaled.T).reshape((len(weights),) + self.shape.dims)

    def screen(
        self, require_entangled: bool, chunk: int = SCREEN_CHUNK
    ) -> tuple[np.ndarray, _ScreenCounts]:
        """Canonical positions of the candidates that may yield certificates.

        Candidates are screened in batches of equal per-party subset sizes.
        The unnormalized projection onto a candidate is ``A A†``, where the
        rows of ``A`` are the restricted ensemble's components on the
        candidate's basis states, so its eigenvalues are those of the
        smaller Gram matrix ``A A†`` or ``A† A``.  A candidate is dropped
        when it is clearly zero-weight or clearly mixed, an order of
        magnitude beyond the thresholds of :func:`project`.  With
        ``require_entangled`` it is also dropped when its top eigenvector is
        clearly product: at every party cut the second squared Schmidt
        coefficient is at most a tenth of ``rank_rtol``.  Borderline cases
        fall through to :func:`project`.  Batches hold at most ``chunk``
        ensemble entries.
        """
        tol = self.tol
        dims = self.shape.dims
        ensemble = np.moveaxis(self.ensemble(), 0, -1)  # party axes first
        rank = ensemble.shape[-1]

        counts = _ScreenCounts()
        kept = []
        for sizes in itertools.product(*(range(1, d + 1) for d in dims)):
            rows, positions = self.group(sizes)
            width = prod(sizes)
            step = max(1, chunk // (width * max(rank, 1)))
            for start in range(0, positions.size, step):
                stop = min(start + step, positions.size)
                picks = np.unravel_index(np.arange(start, stop), positions.shape)
                n = stop - start
                # Index rows broadcast to (n, sizes...): axis p + 1 for party p.
                grid = tuple(
                    party_rows[pick].reshape((n,) + tuple(k if q == p else 1 for q, k in enumerate(sizes)))
                    for p, (party_rows, pick) in enumerate(zip(rows, picks))
                )
                amps = ensemble[grid].reshape(n, width, rank)
                weight = np.sum(np.abs(amps) ** 2, axis=(1, 2))
                live = weight > ZERO_WEIGHT * 0.1
                counts.zero += n - int(np.count_nonzero(live))
                if not live.any():
                    continue
                amps, weight = amps[live], weight[live]
                adjoint = np.conj(amps).transpose(0, 2, 1)
                rank_side = rank <= width  # Gram A† A, else A A†
                gram = adjoint @ amps if rank_side else amps @ adjoint
                evals = np.linalg.eigvalsh(gram)
                residual = np.sum(np.clip(evals[:, :-1], 0.0, None), axis=1)
                pure = residual <= 10.0 * tol.purity_atol * weight
                counts.mixed += len(pure) - int(np.count_nonzero(pure))
                if require_entangled and pure.any():
                    _, vecs = np.linalg.eigh(gram[pure])
                    top = vecs[:, :, -1]
                    if rank_side:
                        top = (amps[pure] @ top[:, :, np.newaxis])[:, :, 0]
                        top /= np.linalg.norm(top, axis=1, keepdims=True)
                    product = np.all(_cut_ranks(top, sizes, 0.1 * tol.rank_rtol) <= 1, axis=1)
                    counts.product += int(np.count_nonzero(product))
                    pure[pure] = ~product
                kept.append(positions.ravel()[start:stop][live][pure])
        survivors = np.sort(np.concatenate(kept)) if kept else np.zeros(0, dtype=int)
        return survivors, counts

    def classify(self, positions: Sequence[int]) -> Iterator[tuple[LocalSubspace, ProjectionOutcome]]:
        """Each candidate at ``positions``, in that order: its subspace cut
        from the bases, and the :func:`project` outcome of the power on it."""
        picks = np.unravel_index(np.asarray(positions, dtype=int), [len(s) for s in self.subsets])
        for pick in zip(*picks):
            indices = tuple(s[i] for s, i in zip(self.subsets, pick))
            subspace = LocalSubspace._from_checked(self.shape.labels, self.bases, indices)
            yield subspace, project(self.rho, subspace, self.tol)


def find_dss(
    rho: DensityMatrix,
    bases: Mapping[str, np.ndarray] | None = None,
    *,
    copies: int = 1,
    require_entangled: bool = True,
    min_signature: Sequence[int] | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
    prune: bool = True,
    candidate_cap: int = CANDIDATE_CAP,
) -> list[DssCertificate]:
    """Search subsets of per-party bases of ``rho^(x copies)`` for DSS.

    Covers every product of nonempty per-party index subsets (so
    ``prod(2^(d_p^n) - 1)`` candidates for ``n`` copies) and returns, in
    canonical order, a certificate for each candidate whose projection is
    pure, entangled (unless ``require_entangled`` is off) and at least
    ``min_signature`` componentwise.  ``bases`` are keyed on the power's
    parties, of local dimension ``d_p^n``; the cap is checked on its shape
    before :func:`~dsskit.states.tensor_power` builds it.

    The search takes every candidate position, screens them, and classifies
    what is left by :func:`project`, which re-verifies every returned
    certificate and supplies its weight and signature.  The screen runs over
    all candidates at once on the state's significant eigenvectors,
    restricted to each candidate.  It drops candidates that are clearly
    zero-weight or clearly mixed: weight at most a tenth of ``ZERO_WEIGHT``,
    or residual weight beyond the top eigenvalue above ``10 * purity_atol``
    of the weight.  With ``require_entangled`` it also drops candidates whose
    top eigenvector is clearly product: at every party cut its second
    squared Schmidt coefficient is at most ``0.1 * rank_rtol``.  Both margins
    are ten times the thresholds of :func:`project`, so pruned and unpruned
    searches return identical results.  ``prune=False`` runs no screen.

    One DEBUG record on the ``dsskit`` logger gives the candidates, those
    screened out as zero, mixed and product, those classified and the
    certificates.
    """
    ctx = _SearchContext(rho, copies, bases, tol, candidate_cap)
    if min_signature is not None:
        min_signature = tuple(as_int(m, "min_signature") for m in min_signature)
        if len(min_signature) != len(rho.shape.parties):
            raise InvariantViolation("min_signature", "one entry per party required")

    if prune:
        positions, counts = ctx.screen(require_entangled)
    else:
        positions, counts = range(ctx.count), _ScreenCounts()
    certificates = []
    for subspace, outcome in ctx.classify(positions):
        if outcome.classification == "pure-entangled" or (
            not require_entangled and outcome.classification == "pure-product"
        ):
            if min_signature is None or all(
                n >= m for n, m in zip(outcome.signature, min_signature)
            ):
                certificates.append(DssCertificate(subspace, outcome))
    _logger.debug(
        "find_dss: %d candidates, screened out %d zero, %d mixed, %d product; "
        "%d classified, %d certificates",
        ctx.count, counts.zero, counts.mixed, counts.product, len(positions), len(certificates),
        extra={
            "search_stats": {
                "candidates": ctx.count,
                "screened_zero": counts.zero,
                "screened_mixed": counts.mixed,
                "screened_product": counts.product,
                "classified": len(positions),
                "certificates": len(certificates),
            }
        },
    )
    return certificates


@dataclass(frozen=True, eq=False)
class PurifyingSubspace:
    """A subspace whose mixed projection beats a reference concurrence."""

    subspace: LocalSubspace
    outcome: ProjectionOutcome
    measure_before: float
    measure_after: float


def find_purifying_subspaces(
    rho: DensityMatrix,
    bases: Mapping[str, np.ndarray] | None = None,
    *,
    copies: int = 1,
    reference: DensityMatrix | float | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
    candidate_cap: int = CANDIDATE_CAP,
) -> list[PurifyingSubspace]:
    """Search ``rho^(x copies)`` for subspaces whose mixed projection has
    higher concurrence.

    The measure is the two-qubit concurrence, so only a two-party state is
    searched; any other state gives an empty list.  The pipeline is that of
    :func:`find_dss` with no screen, over the candidates with two vectors of
    the power's local bases per party, in canonical order.  ``reference``
    fixes the concurrence to beat: a number, a two-qubit state, or (by
    default) ``rho``, the single copy, which must then be a two-qubit state.
    A mixed projection is kept when it beats the reference by the absolute
    margin ``tol.purity_atol`` (one handing back a copy ties it to an ulp).
    As in :func:`find_dss`, the cap is checked first.
    """
    ctx = _SearchContext(rho, copies, bases, tol, candidate_cap)
    if len(ctx.shape.parties) != 2 or 1 in ctx.shape.dims:
        return []  # concurrence undefined for the projected shapes
    reference = rho if reference is None else reference
    if isinstance(reference, DensityMatrix):
        measure_before = concurrence(reference, tol)
    else:
        measure_before = float(reference)

    _, positions = ctx.group((2, 2))
    found = []
    for sub, outcome in ctx.classify(positions.ravel()):
        if outcome.classification != "mixed":
            continue
        measure_after = concurrence(outcome.state, tol)
        if measure_after > measure_before + tol.purity_atol:
            found.append(PurifyingSubspace(sub, outcome, measure_before, measure_after))
    return found


# ---------------------------------------------------------------------------
# Rank bound
# ---------------------------------------------------------------------------


def rank_bound(shape: SystemShape, copies: int, signature: Sequence[int]) -> int:
    """Largest rank of an n-copy state that can still project to a pure
    state of the given dimension signature: ``(prod dims)^n - prod(n_i) + 1``.
    The signature needs one entry per party with ``1 <= n_i <= d_i^n``.
    """
    copies = as_int(copies, "copies")
    if copies < 1:
        raise InvariantViolation("copies", f"copies must be >= 1, got {copies}")
    signature = tuple(as_int(s, "signature") for s in signature)
    if len(signature) != len(shape.parties):
        raise InvariantViolation(
            "signature", f"signature needs one entry per party ({len(shape.parties)}), got {signature}"
        )
    if any(s < 1 for s in signature):
        raise InvariantViolation("signature", f"signature entries must be >= 1, got {signature}")
    ceilings = tuple(p.dim**copies for p in shape.parties)
    if any(s > c for s, c in zip(signature, ceilings)):
        raise InvariantViolation(
            "signature", f"signature entries must not exceed the per-party dims {ceilings}, got {signature}"
        )
    return shape.total_dim**copies - prod(signature) + 1


def power_rank(rho: DensityMatrix, copies: int, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Numerical rank of ``rho^(x copies)``, read off the single-copy spectrum.

    Counts the n-fold products of ``rho``'s eigenvalues whose magnitude
    passes :func:`~dsskit.linalg.above_rank_cutoff`, as
    :func:`~dsskit.linalg.numerical_rank` does; for a Hermitian matrix those
    magnitudes are its singular values.  No tensor power is built, and the
    copies and size checks are those of :func:`~dsskit.states.tensor_power`.
    """
    magnitudes = np.abs(_power_spectrum(rho, copies))
    return int(np.count_nonzero(above_rank_cutoff(magnitudes, tol.rank_rtol)))


@dataclass(frozen=True)
class RankBoundReport:
    rank: int
    bound: int
    satisfied: bool


def check_rank_bound(
    rho: DensityMatrix,
    copies: int,
    cert: DssCertificate,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> RankBoundReport:
    """Compare the measured rank of ``rho^(x copies)`` against the bound.

    ``cert`` must have been produced from that tensor power.  The rank is
    :func:`power_rank`'s, read off the eigenvalues of ``rho`` without
    building the tensor power.  Any genuine certificate satisfies the
    bound; an unsatisfied report flags a numerical-tolerance inconsistency
    rather than a counterexample.
    """
    if cert.outcome.signature is None:
        raise InvariantViolation("signature", "certificate lacks a dimension signature")
    rank = power_rank(rho, copies, tol)
    bound = rank_bound(rho.shape, copies, cert.outcome.signature)
    return RankBoundReport(rank=rank, bound=bound, satisfied=rank <= bound)
