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
source of positions, an optional screen, and the classification of the
remaining candidates by the kernel :func:`project` runs, on their blocks
stacked by side.  Only their keep tests differ.  The screened DSS search
is core first: it classifies one block per distinct core of the
survivors, and a survivor padded with zero rows takes its core's
classification (:func:`search_dss`).
"""

from __future__ import annotations

import functools
import itertools
import logging
import time
from dataclasses import dataclass
from math import prod
from typing import Collection, Iterator, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .entanglement import _concurrence_stack, _cut_ranks, concurrence
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
    SystemShape,
    _checked_copies,
    _normalized_stack,
    _power_block,
    _power_checks,
    _power_sandwich,
    _power_shape,
    _power_spectrum,
    _read_only,
    tensor_power,
)

Classification = Literal["pure-entangled", "pure-product", "mixed", "zero"]

_logger = logging.getLogger("dsskit")

#: Default ceiling on the number of candidate subspaces a search may visit.
CANDIDATE_CAP = 1_000_000

#: Entries a search classifies at once (2 MiB of complex128): it reads its
#: survivors in slices of about this many block entries, each candidate
#: counting at least the power's side, whatever their count
#: (:meth:`_SearchContext.classify`).  The core pass, which reads no block,
#: takes slices of about this many row-mask entries, the power's side per
#: candidate (:meth:`_SearchContext.cores`).
_SLICE_ENTRIES = 1 << 17

#: The bytes of a complex128 1.0's real part.
_ONE = np.float64(1.0).tobytes()

#: The classification kernel's codes, by index.
_CLASSES: tuple[Classification, ...] = ("zero", "mixed", "pure-product", "pure-entangled")


@functools.lru_cache(maxsize=1024)
def _subspace_shape(labels: tuple[str, ...], dims: tuple[int, ...]) -> SystemShape:
    """The shape of a product subspace with ``dims[p]`` vectors for party
    ``labels[p]``: the shape of states in its coordinates.  The labels are
    a checked shape's and the dims a subspace's, so it is stored unchecked,
    and built once per labels and dims (shapes are immutable)."""
    return SystemShape._derived((label, (m,)) for label, m in zip(labels, dims))


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
        columns: Sequence[np.ndarray],
        indices: Sequence[tuple[int, ...]],
    ) -> "LocalSubspace":
        """The subspace of per-party ``columns``, each the :func:`_columns`
        ``indices[p]`` of a basis that passed :func:`_resolve_bases`.  With
        nonempty, in-range and distinct indices the columns are orthonormal,
        so no check runs here."""
        self = object.__new__(cls)
        object.__setattr__(self, "parties", tuple(zip(labels, columns)))
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
        return cls._from_checked(shape.labels, [_columns(b, idx) for b, idx in zip(resolved, recorded)], recorded)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.parties)

    @functools.cached_property
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
        return _subspace_shape(self.labels, self.dims)

    def _computational_rows(self) -> list[list[int]] | None:
        """Each party's row of each of its columns when every column is a
        computational basis vector byte for byte (1.0 at one row, +0.0 in
        every other real and imaginary part), else None."""
        rows = []
        for _, v in self.parties:
            at = v.real.argmax(axis=0).tolist()
            one_hot = bytearray(v.nbytes)
            for j, row in enumerate(at):
                start = (row * len(at) + j) * v.itemsize
                one_hot[start : start + len(_ONE)] = _ONE
            if one_hot != v.tobytes():
                return None
            rows.append(at)
        return rows

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


def _columns(basis: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    """The columns ``idx`` of ``basis``, read-only."""
    return _read_only(basis[:, list(idx)])


@functools.lru_cache(maxsize=64)
def _party_digits(dims: tuple[int, ...]) -> np.ndarray:
    """``(prod(dims), sum(dims))``, read-only: row ``x`` is 1.0 at each
    party's index of flat index ``x``, the parties' columns in order."""
    total, digits = prod(dims), np.unravel_index(np.arange(prod(dims)), dims)
    out = np.zeros((total, sum(dims)))
    for offset, digit in zip(itertools.accumulate(dims, initial=0), digits):
        out[np.arange(total), offset + digit] = 1.0
    return _read_only(out)


def _held(live: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """The padding rule, on ``live`` ``(n, prod(dims))``: block ``i``'s
    nonzero rows at their flat indices in per-party dims ``dims``.  Returns
    ``(n, sum(dims))``, each party's indices in order: those some nonzero
    row of the block holds.  Each other index of the block is padding:
    every row that holds it is zero."""
    return live @ _party_digits(dims) > 0


def _product(held: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """``(n, prod(dims))`` from ``(n, sum(dims))`` per-party index masks, as
    :func:`_held` gives them: flat index ``x`` is set in row ``i`` when
    every party's index of ``x`` is."""
    return held @ _party_digits(dims).T == len(dims)


def _classify_stack(
    stacks: Sequence[tuple[np.ndarray, np.ndarray]], tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """The classification kernel of :func:`project` and the searches.

    Each of ``stacks`` pairs normalized, exactly Hermitian blocks of
    nonzero weight ``(n, k, k)`` with their per-party sizes ``(n,
    parties)``, whose product is ``k``: a block's rows are row-major over
    its sizes, as the ascending flat indices of a product of ascending
    per-party index sets are.  Returns, for every block of every stack in
    order, its index into ``_CLASSES`` ("mixed" or pure) and its ranks at
    the single-party cuts (zero unless pure).  Each block's result is that
    of the block alone; the kernel classifies the blocks it is given, zero
    rows and all.

    Each stack takes one ``eigh``.  A block is pure when its top eigenvalue
    is at least ``1 - purity_atol``.  The top eigenvectors of the pure
    blocks, grouped by their blocks' sizes and each read at them, go into
    one :func:`~dsskit.entanglement._cut_ranks` call; a pure block is
    entangled when some rank exceeds 1.
    """
    groups, at, first = [], [], 0
    for blocks, sizes in stacks:
        if len(blocks):
            evals, evecs = np.linalg.eigh(blocks)
            by_sizes: dict[tuple[int, ...], list[int]] = {}
            shapes = sizes.tolist()
            for i in np.flatnonzero(evals[:, -1] >= 1.0 - tol.purity_atol).tolist():
                by_sizes.setdefault(tuple(shapes[i]), []).append(i)
            for shape, rows in by_sizes.items():
                groups.append((evecs[rows, :, -1], shape))
                at.extend(first + i for i in rows)
        first += len(blocks)
    codes, ranks = np.ones(first, dtype=np.int8), np.zeros((first, stacks[0][1].shape[1]), dtype=np.intp)
    if groups:
        at = np.array(at)
        ranks[at] = got = _cut_ranks(groups, tol.rank_rtol)
        codes[at] = 2 + (got.max(axis=-1) > 1)
    return codes, ranks


def _outcome(weight: float, state: DensityMatrix | None, code: int, signature: Sequence[int]) -> ProjectionOutcome:
    """The :class:`ProjectionOutcome` of one block with classification
    ``_CLASSES[code]``."""
    cls = _CLASSES[code]
    if cls == "zero":
        return ProjectionOutcome(weight=0.0, state=None, classification="zero")
    if cls == "mixed":
        return ProjectionOutcome(weight=weight, state=state, classification="mixed")
    return ProjectionOutcome(weight, state, cls, tuple(signature))


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
    is entangled when some entry of its dimension signature exceeds 1.  The
    classification is the kernel the searches run
    (:func:`_classify_stack`), here on a stack of one block at the
    subspace's dims.

    With ``copies > 1`` the subspace lives on the party-major shape of
    :func:`~dsskit.states.tensor_power`, and the power is never formed: it
    passes the same checks on the single copy.  When every party's columns
    are computational basis vectors, at any ``copies``, the compressed block
    is read as products of single-copy entries, ``k**2`` of them for ``k``
    columns (:func:`~dsskit.states._power_block`; bit-equal to the dense
    power's).  Any other subspace is compressed densely with one copy and
    contracted copy by copy from ``rho`` with more
    (:func:`~dsskit.states._power_sandwich`; equal to roundoff).  The
    classification that follows is the same.
    """
    copies = _checked_copies(rho, copies)
    if copies > 1:
        _power_checks(rho, copies, tol)
    subspace._check_against(rho.shape, copies)
    rows = subspace._computational_rows()
    if rows is not None:
        out = _power_block(rho, copies, rows)
    elif copies == 1:
        m = dagger(subspace.compression())
        out = m @ rho.mat @ dagger(m)
    else:
        out = _power_sandwich(rho, copies, subspace.compression())
    weights, live, states = _normalized_stack(out[np.newaxis])
    if not live[0]:
        return _outcome(0.0, None, 0, ())
    codes, ranks = _classify_stack([(states, np.array([subspace.dims]))], tol)
    state = DensityMatrix._derived(subspace.subspace_shape(), states[0])
    return _outcome(float(weights[0]), state, int(codes[0]), ranks[0].tolist())


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
    single copy, so no matrix of the power's side is built; on
    computational basis vectors it reads only the ``k**2`` entries of the
    block.
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


def _subset_indices(dim: int) -> tuple[tuple[int, ...], ...]:
    """All nonempty index subsets of range(dim), by ascending bitmask."""
    return tuple(tuple(i for i in range(dim) if (mask >> i) & 1) for mask in range(1, 1 << dim))


@functools.lru_cache(maxsize=8)
def _tables(dims: tuple[int, ...]) -> tuple[tuple, ...]:
    """The tables of a search over local dims ``dims`` that depend on
    nothing else, one entry per party, built once per dims tuple and
    read-only:

    - ``subsets[p]``: party ``p``'s nonempty index subsets, by ascending
      bitmask;
    - ``members[p][i, a]``: 1.0 when the ``i``-th subset holds index ``a``;
    - ``sizes[p][i]``: the ``i``-th subset's size.
    """
    subsets = tuple(_subset_indices(d) for d in dims)
    members = tuple(
        _read_only(np.array([[a in idx for a in range(d)] for idx in s], float)) for s, d in zip(subsets, dims)
    )
    sizes = tuple(_read_only(m.sum(axis=1).astype(np.intp)) for m in members)
    return subsets, members, sizes


@functools.lru_cache(maxsize=8)
def _screen_tables(dims: tuple[int, ...]) -> tuple[tuple, ...]:
    """The index tables of :meth:`_SearchContext.screen` over local dims
    ``dims``, built once per dims tuple and read-only: the axis ``order``
    that pairs each party's row and column axes of ``G``; per party ``p``,
    the flat indices ``rows[p][b, a]`` with party ``p``'s index ``a`` and
    the others' ``b``; and the mask ``shaped[p]`` of the candidates whose
    cut at party ``p`` has one basis state on either side."""
    grid = np.ix_(*_tables(dims)[2])
    index = np.arange(prod(dims)).reshape(dims)
    order = tuple(a for p in range(len(dims)) for a in (p, p + len(dims)))
    rows = tuple(_read_only(np.moveaxis(index, p, -1).reshape(-1, d)) for p, d in enumerate(dims))
    shaped = tuple(_read_only((g == 1) | (g == prod(grid))) for g in grid)
    return order, rows, shaped


def candidate_count(shape: SystemShape) -> int:
    return prod((1 << d) - 1 for d in shape.dims)


@dataclass
class _ScreenCounts:
    zero: int = 0
    mixed: int = 0
    product: int = 0


def _contract(tensor: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Sum the leading axes of ``tensor``, one per matrix, against the rows
    of ``mats``: ``out[..., i_1, ..., i_m] = sum tensor[t_1, ..., t_m, ...]
    * prod mats[j][i_j, t_j]``.  The axes left over come first.  Each step
    is one matrix product of transposed views, with no copy of ``tensor``:
    it equals ``np.tensordot(tensor, m, axes=(0, 1))`` to roundoff."""
    for m in mats:
        rest = tensor.shape[1:]
        tensor = (tensor.reshape(len(tensor), -1).T @ m.T).reshape(rest + (len(m),))
    return tensor


def _runs(cost: np.ndarray) -> Iterator[slice]:
    """Runs of consecutive entries of ``cost``, in order, each summing to
    about ``_SLICE_ENTRIES``, or a single entry above it."""
    ends = (np.flatnonzero(np.diff((np.cumsum(cost) - 1) // _SLICE_ENTRIES, append=-1)) + 1).tolist()
    return map(slice, [0] + ends, ends)


def _diagonal_sums(diagonal: np.ndarray, mask: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The real part of the complex sum of ``diagonal`` over each row of
    ``mask`` ``(n, D)``, whose ``side[i]`` set entries are read in
    ascending order: bit-equal to the trace of the block of those rows
    (:func:`~dsskit.states._normalized_stack`'s weight), as it is the same
    reduction over the same entries in the same order.  The rows are taken
    by side, so that each side's sums are one reduction over a contiguous
    run of entries."""
    order = np.argsort(side, kind="stable")
    entries, sums, first = diagonal[np.nonzero(mask[order])[1]], [], 0
    for k, n in zip(*(a.tolist() for a in np.unique(side, return_counts=True))):
        sums.append(entries[first:first + n * k].reshape(n, k).sum(axis=-1))
        first += n * k
    out = np.empty(len(side))
    out[order] = np.concatenate(sums).real
    return out


class _SearchContext:
    """One search over ``rho^(x copies)``: the cap check on the power's
    shape, the power (checked to ``tol``), the resolved bases, the power in
    the search basis (``local``) and the :func:`_tables` of the power's
    local dims.  With no supplied basis the search basis is the product
    basis: ``local`` is the power's own matrix, read as it is, and
    ``change`` is None.  With supplied bases ``change`` is ``U =
    kron_all(bases)`` and ``local = U† rho U``.  The screen, the core pass
    and classification all read ``local``: the screen whole, the others one
    slice of consecutive positions at a time.

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
        self.single = rho
        self.rho = tensor_power(rho, copies, tol)
        self.shape = self.rho.shape
        self.tol = tol
        self.bases = _resolve_bases(self.shape, bases)
        if bases:
            self.change = kron_all(self.bases)
            self.local = dagger(self.change) @ self.rho.mat @ self.change
        else:
            self.change, self.local = None, self.rho.mat
        self.subsets, self.members, self.sizes = _tables(self.shape.dims)
        # columns[p][idx]: party p's basis columns of its subset idx, cut
        # when first asked for; a party of dim d has 2^d - 1 subsets.
        self.columns = [{} for _ in self.subsets]

    def group(self, sizes: Sequence[int]) -> np.ndarray:
        """The canonical positions, ascending, of the candidates whose subset
        for party ``p`` has ``sizes[p]`` elements."""
        picks = np.ix_(*(np.flatnonzero(s == k) for s, k in zip(self.sizes, sizes)))
        return np.ravel_multi_index(picks, [len(s) for s in self.subsets]).ravel()

    def screen(self, require_entangled: bool) -> tuple[np.ndarray, _ScreenCounts]:
        """Canonical positions of the candidates that may yield certificates.

        ``G`` is ``local``, the matrix the core pass and the kernel read, and
        a candidate ``S``'s unnormalized projection is ``G`` restricted to
        ``S x S``.  Each test below sums over basis states, or pairs of them,
        inside ``S``.  As ``S`` is a product of per-party subsets, such a sum
        contracts a kernel of at most ``D x D`` entries with each party's
        subset indicators, so all candidates are decided at once, one kernel
        at a time, in working memory O(D^2 + candidates), with no
        eigensolver.  The index tables come from :func:`_screen_tables`.  A
        candidate is dropped as

        - zero when its weight ``w = sum_{x in S} G[x, x]`` is at most a tenth
          of ``ZERO_WEIGHT``;
        - mixed when its purity deficit ``delta = 1 - sum_{x, y in S}
          |G[x, y]|^2 / w^2`` exceeds ``20 * purity_atol``.  The residual
          weight beyond the top eigenvalue, as a fraction ``eps`` of ``w``,
          satisfies ``delta / 2 <= eps <= delta``, so ``eps > 10 *
          purity_atol``;
        - product, with ``require_entangled``, when at every party cut
          ``1 - Pi_p + 2 * delta <= 0.1 * rank_rtol``, where ``Pi_p`` is the
          purity of the candidate's normalized reduced state on party ``p``.
          That bounds the second squared Schmidt coefficient of the top
          eigenvector at the cut.  A cut with one index on either side is
          product by its shape.

        Both margins are ten times the thresholds of :func:`project`, and
        borderline candidates fall through to it.  The kernel reads the same
        matrix, so the margins cover every component, below the rank cutoff too.
        """
        dims, gram = self.shape.dims, self.local
        order, rows, shaped = _screen_tables(dims)
        # pairs[p][i, a * d + b] = 1.0 when party p's i-th subset holds a and b.
        pairs = [(m[:, :, np.newaxis] * m[:, np.newaxis, :]).reshape(len(m), -1) for m in self.members]

        weight = _contract(np.real(np.diagonal(gram)).reshape(dims), self.members)
        # by_pair[(x_1, y_1), ..., (x_k, y_k)] = |G[x, y]|^2: one pair axis per party.
        by_pair = (np.abs(gram) ** 2).reshape(dims + dims).transpose(order)
        purity = _contract(by_pair.reshape([d * d for d in dims]), pairs)

        live = weight > ZERO_WEIGHT * 0.1
        norm = np.where(live, weight, 1.0) ** 2
        deficit = 1.0 - purity / norm
        mixed = live & (deficit > 20.0 * self.tol.purity_atol)
        keep = live & ~mixed
        counts = _ScreenCounts(int(np.count_nonzero(~live)), int(np.count_nonzero(mixed)))
        if require_entangled:
            product = keep
            for p, d in enumerate(dims):
                # block[b, a, a'] = G[(a, b), (a', b)], b over the other parties.
                block = gram[rows[p][:, :, np.newaxis], rows[p][:, np.newaxis, :]]
                others = [m for q, m in enumerate(self.members) if q != p]
                # reduced[(a, a'), i_others] = the unnormalized reduced state's entry.
                reduced = _contract(block.reshape(dims[:p] + dims[p + 1:] + (d * d,)), others)
                purity_p = np.moveaxis(_contract(np.abs(reduced) ** 2, [pairs[p]]), -1, p) / norm
                product = product & (shaped[p] | (1.0 - purity_p + 2.0 * deficit <= 0.1 * self.tol.rank_rtol))
            counts.product = int(np.count_nonzero(product))
            keep = keep & ~product
        return np.flatnonzero(keep), counts

    def subspace(self, indices: Sequence[tuple[int, ...]]) -> LocalSubspace:
        """The candidate with party ``p``'s subset ``indices[p]`` of its
        basis, cut from the bases.  Each party's columns of a subset are cut
        once per search and shared, read-only, by every subspace that holds
        them."""
        columns = []
        for basis, cut, idx in zip(self.bases, self.columns, indices):
            vecs = cut.get(idx)
            if vecs is None:
                vecs = cut[idx] = _columns(basis, idx)
            columns.append(vecs)
        return LocalSubspace._from_checked(self.shape.labels, columns, indices)

    def classify(
        self, positions: Sequence[int], keep: Collection[Classification]
    ) -> Iterator[tuple[LocalSubspace, ProjectionOutcome]]:
        """Each candidate at ``positions`` whose classification is in
        ``keep``, in that order: its :meth:`subspace`, and the outcome of the
        power on it (:meth:`_classified`)."""
        for _, indices, outcome in self._classified(positions, keep):
            yield self.subspace(indices), outcome

    def _classified(
        self, positions: Sequence[int], keep: Collection[Classification]
    ) -> Iterator[tuple[int, tuple[tuple[int, ...], ...], ProjectionOutcome]]:
        """Each candidate at ``positions`` whose classification is in
        ``keep``, in that order: its index in ``positions``, its subset of
        each party's basis and the outcome of the power on it, classified
        from its own block.  Only those candidates get an outcome and a copy
        of their state.

        In each slice (:meth:`_slices`), the blocks are read by
        :meth:`_read` and one :func:`_classify_stack` call, the kernel of
        :func:`project`, classifies them at their per-party subset sizes.
        On computational bases the blocks, and so the outcomes, are
        bit-equal to :func:`project`'s on the power; on rotated ones they
        agree to roundoff.  Every outcome owns a copy of its state, so none
        keeps a slice alive.  ``decomposed`` counts the blocks handed to the
        kernel, those of nonzero weight, summed over the slices.
        """
        wanted = np.array([c in keep for c in _CLASSES])
        self.decomposed = done = 0
        for picks, side in self._slices(positions):
            n = len(side)
            weights, stacks = self._read(picks, side)
            sizes = np.stack([s[pick] for s, pick in zip(self.sizes, picks)], axis=-1)
            codes, ranks = np.zeros(n, dtype=np.int8), np.zeros(sizes.shape, dtype=np.intp)
            live = np.concatenate([at for at, _ in stacks])
            codes[live], ranks[live] = _classify_stack([(blocks, sizes[at]) for at, blocks in stacks], self.tol)
            self.decomposed += len(live)
            states = dict(zip(live.tolist(), (block for _, blocks in stacks for block in blocks)))
            chosen = np.flatnonzero(wanted[codes])
            for i, indices, weight, code, signature in zip(
                chosen.tolist(),
                self._indices([p[chosen] for p in picks]),
                weights[chosen].tolist(),
                codes[chosen].tolist(),
                ranks[chosen].tolist(),
            ):
                state = states.get(i)
                if state is not None:
                    state = DensityMatrix._derived(self._state_shape(indices), state.copy())
                yield done + i, indices, _outcome(weight, state, code, signature)
            done += n

    def _state_shape(self, indices: Sequence[tuple[int, ...]]) -> SystemShape:
        """The shape of the states of the candidate with per-party subsets ``indices``."""
        return _subspace_shape(self.shape.labels, tuple(map(len, indices)))

    def _indices(self, picks: Sequence[np.ndarray]) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Each candidate's subset of each party's basis, from its subset
        numbers ``picks`` (one array per party)."""
        return zip(*([s[j] for j in pick.tolist()] for s, pick in zip(self.subsets, picks)))

    def _picks(self, positions: Sequence[int]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The subset numbers (one array per party) and the block sides of
        the candidates at ``positions``."""
        picks = np.unravel_index(np.asarray(positions, dtype=np.intp), [len(s) for s in self.subsets])
        return picks, np.prod([s[pick] for s, pick in zip(self.sizes, picks)], axis=0, dtype=np.intp)

    def _slices(self, positions: Sequence[int]) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
        """The candidates at ``positions`` in slices of consecutive ones, for
        reading their blocks: per slice, their subset numbers (one array per
        party) and block sides.  A candidate counts the larger of its block's
        entries and the power's side ``D``, the length of its row mask
        (:func:`_runs`)."""
        picks, side = self._picks(positions)
        for run in _runs(np.maximum(side * side, self.shape.total_dim)):
            yield [pick[run] for pick in picks], side[run]

    def _rows(self, picks: Sequence[np.ndarray]) -> np.ndarray:
        """``mask[i, x]``: the ``i``-th candidate holds flat index ``x``, the
        outer product of its per-party ``members`` rows.  Its rows, read in
        ascending order, are the order of :meth:`LocalSubspace.compression`'s
        columns."""
        return _product(np.concatenate([m[pick] for m, pick in zip(self.members, picks)], axis=1), self.shape.dims)

    def _read(
        self, picks: Sequence[np.ndarray], side: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The blocks of the candidates with subset numbers ``picks`` and
        block sides ``side``: their weights and, per block side, the
        candidates of nonzero weight and their normalized blocks.  Each
        side's blocks are read out of ``local`` by one index, with no product
        or matrix multiply per candidate, and normalized by one
        :func:`~dsskit.states._normalized_stack` call."""
        mask = self._rows(picks)
        weights, stacks = np.zeros(len(side)), []
        for k in np.unique(side).tolist():
            at = np.flatnonzero(side == k)
            rows = np.nonzero(mask[at])[1].reshape(-1, k)
            weights[at], kept, blocks = _normalized_stack(self.local[rows[:, :, np.newaxis], rows[:, np.newaxis, :]])
            stacks.append((at[kept], blocks))
        return weights, stacks

    def states(self, positions: Sequence[int]) -> Iterator[DensityMatrix]:
        """The state of the power on each candidate at ``positions``, all of
        nonzero weight, in order: its own block, normalized, as
        :meth:`_classified` gives it."""
        for picks, side in self._slices(positions):
            _, stacks = self._read(picks, side)
            states = dict(zip(
                np.concatenate([at for at, _ in stacks]).tolist(),
                (block for _, blocks in stacks for block in blocks),
            ))
            for i, indices in enumerate(self._indices(picks)):
                yield DensityMatrix._derived(self._state_shape(indices), states[i].copy())

    def cores(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each candidate's core position and weight, read off ``local``
        without reading a block.

        Party ``p``'s index ``a`` is padding for a candidate when every
        row of ``local`` within the candidate whose party-``p`` index is
        ``a`` is exactly zero, and so is its column.  This is the only home
        of the padding rule: the kernel classifies whole blocks.  Removing
        every padding index at once gives the core; as only zero rows and
        columns go, the core has the candidate's classification and
        signature.  A row is nonzero within the candidate when some basis
        state of the candidate touches it: a nonzero entry of ``local`` in
        its row or its column.  That is one product of the candidates' row
        masks with the 0/1 pattern of those entries.  When no diagonal entry
        of ``local`` is zero, every row is nonzero and each candidate is its
        own core.

        The weight is the complex sum of ``local``'s diagonal over the
        candidate's rows (:func:`_diagonal_sums`), bit-equal to its block's
        weight.  A candidate of weight 0 has no nonzero row and no core; its
        core position is not meaningful.  The candidates are taken in slices
        of about ``_SLICE_ENTRIES`` row-mask entries, ``D`` per candidate for
        the power's side ``D``, whatever their blocks' sides.
        """
        dims, counts = self.shape.dims, [len(s) for s in self.subsets]
        diagonal = np.diagonal(self.local)
        padding = not diagonal.all()
        if padding:
            nonzero = self.local != 0
            touching = (nonzero | nonzero.T).astype(np.float32)
            # A core position is sum_p (bitmask_p - 1) * stride_p over the
            # bitmasks of the indices each party holds.
            strides = [prod(counts[p + 1:]) for p in range(len(counts))]
            place = np.array([(1 << a) * stride for d, stride in zip(dims, strides) for a in range(d)])
        core_at, weights = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
        every, sides = self._picks(positions)
        for run in _runs(np.full(len(sides), self.shape.total_dim)):
            picks, side = [pick[run] for pick in every], sides[run]
            mask = self._rows(picks)
            weights.append(_diagonal_sums(diagonal, mask, side))
            if padding:
                live = mask & (mask.astype(np.float32) @ touching > 0)
                core_at.append(_held(live, dims) @ place - sum(strides))
            else:
                core_at.append(np.ravel_multi_index(picks, counts))
        return np.concatenate(core_at), np.concatenate(weights)


class DssRecord(NamedTuple):
    """One certificate of a search, without its state: the subset of each
    party's basis (``basis_indices``), the weight, the classification, the
    signature, and the index of its core in :attr:`DssSearch.cores`."""

    indices: tuple[tuple[int, ...], ...]
    weight: float
    classification: Classification
    signature: tuple[int, ...]
    core: int


class DssSearch(NamedTuple):
    """What :func:`search_dss` found.

    ``records`` lists the certificates in canonical order, without states.
    ``cores`` holds the distinct cores of those certificates, each a
    certificate with its state, in canonical order.  A record whose
    indices are not its core's is a zero-padded copy of it.  ``stats``
    holds the search counts and seconds of the DEBUG record, ``padded``
    (the records that are not their own core) among them.
    """

    records: tuple[DssRecord, ...]
    cores: tuple[DssCertificate, ...]
    stats: Mapping[str, float]


def _search(
    ctx: _SearchContext,
    require_entangled: bool,
    min_signature: Sequence[int] | None,
    prune: bool,
) -> tuple[DssSearch, list[int], dict[int, DssCertificate]]:
    """The search behind :func:`search_dss` and :func:`find_dss`: the
    :class:`DssSearch`, the positions of its records, and the certificates
    built on the way, keyed on position: the cores' and, unpruned, every
    record's."""
    if min_signature is not None:
        min_signature = tuple(as_int(m, "min_signature") for m in min_signature)
        if len(min_signature) != len(ctx.single.shape.parties):
            raise InvariantViolation("min_signature", "one entry per party required")
    keep = ("pure-entangled",) if require_entangled else ("pure-product", "pure-entangled")

    def certificates(positions: np.ndarray) -> dict[int, DssCertificate]:
        return {
            int(positions[i]): DssCertificate(ctx.subspace(indices), outcome)
            for i, indices, outcome in ctx._classified(positions, keep)
            if min_signature is None or all(n >= m for n, m in zip(outcome.signature, min_signature))
        }

    start = time.perf_counter()
    if prune:
        positions, counts = ctx.screen(require_entangled)
    else:
        positions, counts = np.arange(ctx.count), _ScreenCounts()
    screened = time.perf_counter()
    core_at, weights = ctx.cores(positions)
    live = np.flatnonzero(weights > ZERO_WEIGHT)
    smaller = int(np.count_nonzero(core_at[live] != positions[live]))
    if prune:
        # Core first: each survivor takes the classification of its core,
        # and only the distinct cores are read.
        distinct, back = np.unique(core_at[live], return_inverse=True)
        found = certificates(distinct)
        chosen = live[np.array([c in found for c in distinct.tolist()], dtype=bool)[back]]
    else:
        # The flat oracle: every candidate is classified from its own block
        # (the positions are 0, 1, ..., so a position is its own index).
        found = certificates(positions)
        chosen = np.fromiter(found, dtype=np.intp, count=len(found))
        # A core the rounding of its own weight put across a threshold is
        # not a certificate here; its padded copy stands as its own core.
        core_at = np.where(np.isin(core_at, chosen), core_at, positions)
    at, core_at, weights = positions[chosen], core_at[chosen], weights[chosen]
    cores = sorted(set(core_at.tolist()))
    number = {c: i for i, c in enumerate(cores)}
    indices = ctx._indices(np.unravel_index(at, [len(s) for s in ctx.subsets]))
    at, core_at = at.tolist(), core_at.tolist()
    records = []
    for p, c, weight, subsets in zip(at, core_at, weights.tolist(), indices):
        outcome = found.get(p, found[c]).outcome
        records.append(DssRecord(subsets, weight, outcome.classification, outcome.signature, number[c]))
    classified = time.perf_counter()
    stats = {
        "candidates": ctx.count,
        "screened_zero": counts.zero,
        "screened_mixed": counts.mixed,
        "screened_product": counts.product,
        "classified": len(positions),
        "smaller_cores": smaller,
        "decomposed": ctx.decomposed,
        "certificates": len(records),
        "padded": sum(p != c for p, c in zip(at, core_at)),
        "screen_s": screened - start,
        "classify_s": classified - screened,
    }
    _logger.debug(
        "search_dss: %(candidates)d candidates, screened out %(screened_zero)d zero, %(screened_mixed)d mixed, "
        "%(screened_product)d product; %(classified)d classified (%(smaller_cores)d on a smaller core, "
        "%(decomposed)d blocks decomposed), %(certificates)d certificates (%(padded)d padded); "
        "screen %(screen_s).6f s, classify %(classify_s).6f s",
        stats,
        extra={"search_stats": stats},
    )
    return DssSearch(tuple(records), tuple(found[c] for c in cores), stats), at, found


def search_dss(
    rho: DensityMatrix,
    bases: Mapping[str, np.ndarray] | None = None,
    *,
    copies: int = 1,
    require_entangled: bool = True,
    min_signature: Sequence[int] | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
    prune: bool = True,
    candidate_cap: int = CANDIDATE_CAP,
) -> DssSearch:
    """The search of :func:`find_dss`, with the same parameters, as a
    :class:`DssSearch`: a record of each certificate, without its state,
    and the distinct cores with theirs.

    With ``prune`` (the default) the search is core first.  The screen
    reads the power in the search basis, the matrix the core pass and the
    kernel read, and runs no eigensolver.  After the screen, each
    survivor's core is read off the zero pattern of that matrix, without
    reading its block
    (:meth:`_SearchContext.cores`): the survivor without its padding
    indices, those whose rows and columns within the survivor are all
    exactly zero.  One block per distinct core is read and classified by
    the kernel of :func:`project`.  Each survivor takes its core's
    classification and signature, which zero padding leaves unchanged, and
    its own weight, the sum of the power's diagonal over its rows
    (bit-equal to its block's trace).  A padded survivor is thus classified
    from its core normalized by the core's weight, where its own block is
    normalized by its own weight; the two weights differ at most in the
    last bit.  On example3q(0.5)^⊗2 the 24 certificates have one core: one
    block is read, and 23 records are padded.  With ``prune=False`` every candidate
    is classified from its own block, the flat oracle, which shares no
    padding rule with the core-first search; each record's core, and the
    ``smaller_cores`` count, come from the same zero pattern.
    """
    return _search(_SearchContext(rho, copies, bases, tol, candidate_cap), require_entangled, min_signature, prune)[0]


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

    This is :func:`search_dss`'s run, materialized: each record becomes a
    certificate whose state is read from its own block, so a padded
    certificate's weight and state are its block's, as a core's are.

    The search takes every candidate position, screens them, and classifies
    what is left by the kernel of :func:`project`, which re-verifies every
    returned certificate against the full state and supplies its weight and
    signature; pruned, it classifies the distinct cores of the survivors
    (:func:`search_dss`).  Blocks are taken in position order, in slices of
    about ``_SLICE_ENTRIES`` entries, read by index out of the power in the
    search basis, formed once, and normalized with the others of their side
    in the slice; each block side in a slice takes one decomposition.  The
    screen decides all candidates at once from the same power in the search
    basis, by kernel contractions in memory O(D^2 + candidates) for side
    ``D``, with no eigensolver.  It drops candidates
    that are clearly zero-weight or clearly mixed: weight at most a tenth
    of ``ZERO_WEIGHT``, or purity deficit ``1 - tr(P^2) / tr(P)^2`` of the
    projection ``P`` above ``20 * purity_atol``, which puts the residual
    weight beyond the top eigenvalue above ``10 * purity_atol`` of the
    weight.  With ``require_entangled`` it also drops candidates whose top
    eigenvector is clearly product: at every party cut a bound on its
    second squared Schmidt coefficient, from the reduced purities and the
    deficit, is at most ``0.1 * rank_rtol``.  Both margins are ten times
    the thresholds of :func:`project`, and the screen and the kernel read
    one matrix, so pruned and unpruned searches return identical results,
    components of the state below the rank cutoff included.
    ``prune=False`` runs no screen and
    classifies every candidate from its own block.

    One DEBUG record on the ``dsskit`` logger gives the candidates, those
    screened out as zero, mixed and product, those classified, those of
    them of nonzero weight whose core is strictly smaller
    (``smaller_cores``), the blocks decomposed (``decomposed``: one per
    distinct core pruned, one per nonzero block unpruned), the
    certificates and the padded ones among them (``padded``), and the
    seconds spent screening and classifying.  Only the certificates get a
    subspace cut from the bases.
    """
    ctx = _SearchContext(rho, copies, bases, tol, candidate_cap)
    search, at, found = _search(ctx, require_entangled, min_signature, prune)
    states = ctx.states([p for p in at if p not in found])
    return [
        found[p] if p in found else DssCertificate(
            ctx.subspace(record.indices),
            ProjectionOutcome(record.weight, next(states), record.classification, record.signature),
        )
        for p, record in zip(at, search.records)
    ]


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

    mixed = list(ctx.classify(ctx.group((2, 2)), ("mixed",)))
    if not mixed:
        return []
    # Every mixed outcome here is a two-qubit state: one stacked call.
    measures = _concurrence_stack(np.stack([outcome.state.mat for _, outcome in mixed]))
    return [
        PurifyingSubspace(sub, outcome, measure_before, float(measure_after))
        for (sub, outcome), measure_after in zip(mixed, measures)
        if measure_after > measure_before + tol.purity_atol
    ]


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
