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
remaining candidates by the kernel :func:`project` runs, on the cores of
their blocks stacked by side.  Only their keep tests differ.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass
from math import prod
from typing import Iterator, Literal, Mapping, Sequence

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
    _normalized,
    _normalized_stack,
    _power_checks,
    _power_eigenpairs,
    _power_sandwich,
    _power_shape,
    _power_spectrum,
    tensor_power,
)

Classification = Literal["pure-entangled", "pure-product", "mixed", "zero"]

_logger = logging.getLogger("dsskit")

#: Default ceiling on the number of candidate subspaces a search may visit.
CANDIDATE_CAP = 1_000_000

#: Entries of the largest stack of blocks a search reads at once (1 MiB of
#: complex128): it reads a size group in slices of at most this many,
#: whatever its candidate count, and hands the classification kernel the
#: slices read since its last call once they hold this many.
_SLICE_ENTRIES = 1 << 16

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
        return _subspace_shape(self.labels, self.dims)

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _layout(counts: tuple[tuple[tuple[int, ...], int], ...]) -> tuple:
    """Where the rows of square blocks lie once the blocks are flattened
    one after the other, for runs of ``(per-party sizes, number of
    blocks)``: each block's sizes and side; for every row of every block,
    in order, its block, its index in the block, its first entry, its
    index at each party as a place in the table ``(block, party, index)``
    flattened, and its place in its block zero-padded per party to the
    largest sizes; those largest sizes; and the number of indices of the
    largest party.  Read-only."""
    sizes = np.repeat(np.array([dims for dims, _ in counts], dtype=np.intp), [n for _, n in counts], axis=0)
    side = sizes.prod(axis=1)
    block = np.repeat(np.arange(len(side)), side)
    row = np.arange(len(block)) - (side.cumsum() - side)[block]
    width = side[block]
    starts = width.cumsum() - width
    inner = sizes[:, ::-1].cumprod(axis=1)[:, ::-1] // sizes
    digits = row[:, np.newaxis] // inner[block] % sizes[block]
    frame = sizes.max(axis=0)
    most = int(frame.max())
    places = (block[:, np.newaxis] * len(frame) + np.arange(len(frame))) * most + digits
    framed = digits @ (frame[::-1].cumprod()[::-1] // frame)
    arrays = (sizes, side, block, row, starts, places, framed)
    return tuple(_read_only(a) for a in arrays) + (frame.tolist(), most)


#: The layout of one block depends on its sizes alone: built once per sizes.
_block_layout = functools.lru_cache(maxsize=16)(_layout)


def _classify_stack(
    flat: np.ndarray, counts: tuple[tuple[tuple[int, ...], int], ...], tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classification kernel of :func:`project` and the searches.

    ``flat`` holds normalized, exactly Hermitian blocks of nonzero weight,
    each flattened row by row, one after the other; ``counts`` gives, run
    by run, the blocks' per-party sizes and how many blocks in a row have
    them, at least one block in all.  Returns, for every block in order,
    its index into ``_CLASSES`` ("mixed" or pure), its ranks at the
    single-party cuts (zero unless pure) and whether its core is strictly
    smaller than the block.  Each block's result is that of the block
    alone.

    The pure test and the cut ranks run on each block's core: the block
    with every padding index removed.  Party ``p``'s index ``a`` is padding
    when every row of the block whose party-``p`` index is ``a`` is exactly
    0.0; the columns of those rows are then zero too.  Removing them drops
    only zero rows and columns, so the core has the block's spectrum but
    for zeros, and its top eigenvector is the block's without the zero
    entries; a block with no zero row is its own core.  The cores of all
    blocks are found at once from the rows of ``flat`` (:func:`_layout`),
    and stacked by side, whatever their blocks' sizes: each side takes one
    ``eigh``.  A block is pure when its top eigenvalue is at least ``1 -
    purity_atol``.  The top eigenvector of each pure core,
    put back on its block's rows and zero-padded per party to the largest
    block's sizes, goes into one :func:`~dsskit.entanglement._cut_ranks`
    call (zero entries add only zero singular values), sliced so that its
    stacked cuts hold at most about ``_SLICE_ENTRIES`` entries; a pure
    block is entangled when some rank exceeds 1.
    """
    one = len(counts) == 1 and counts[0][1] == 1
    sizes, side, block, row, starts, places, framed, frame, most = (_block_layout if one else _layout)(counts)
    used = np.zeros(sizes.size * most, dtype=bool)  # per (block, party, index): not padding
    used[places[np.logical_or.reduceat(flat != 0, starts)]] = True
    keep = np.logical_and.reduce(used[places], axis=1)
    core = np.bincount(block[keep], minlength=len(side))
    codes = np.ones(len(side), dtype=np.int8)
    ranks = np.zeros(sizes.shape, dtype=np.intp)
    pure_at, tops = [], []
    for c in sorted(set(core.tolist())):
        kept = np.flatnonzero(keep & (core[block] == c)).reshape(-1, c)  # one row per block
        evals, evecs = np.linalg.eigh(flat[starts[kept][:, :, np.newaxis] + row[kept][:, np.newaxis, :]])
        pure = evals[:, -1] >= 1.0 - tol.purity_atol
        rows = kept[pure]
        if len(rows):
            top = np.zeros((len(rows), prod(frame)), dtype=evecs.dtype)
            top[np.arange(len(rows))[:, np.newaxis], framed[rows]] = evecs[pure, :, -1]
            pure_at.append(block[rows[:, 0]])
            tops.append(top)
    if pure_at:
        pure_at, tops = np.concatenate(pure_at), np.concatenate(tops)
        step = max(1, _SLICE_ENTRIES // (len(frame) * tops.shape[1]))
        for start in range(0, len(pure_at), step):
            chunk = pure_at[start : start + step]
            ranks[chunk] = got = _cut_ranks(tops[start : start + step], frame, tol.rank_rtol)
            codes[chunk] = 2 + np.logical_or.reduce(got > 1, axis=-1)
    return codes, ranks, core < side


def _outcome(weight: float, state: DensityMatrix | None, code: int, signature: Sequence[int]) -> ProjectionOutcome:
    """The :class:`ProjectionOutcome` of one block with classification
    ``_CLASSES[code]``."""
    cls = _CLASSES[code]
    if cls == "zero":
        return ProjectionOutcome(weight=0.0, state=None, classification="zero")
    if cls == "mixed":
        return ProjectionOutcome(weight=weight, state=state, classification="mixed")
    return ProjectionOutcome(weight, state, cls, tuple(int(n) for n in signature))


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
    (:func:`_classify_stack`), here on a stack of one: the pure test and
    the signature come from the block's core, the block with every index
    whose rows are exactly zero removed, and the weight and state from the
    block itself.

    With ``copies > 1`` the subspace lives on the party-major shape of
    :func:`~dsskit.states.tensor_power`, and the power is never formed: it
    passes the same checks on the single copy, and its compression is
    contracted copy by copy from ``rho`` (:func:`~dsskit.states._power_sandwich`;
    bit-equal to the dense one on computational basis vectors, equal to
    roundoff otherwise).  The classification that follows is the same.
    """
    if copies == 1:
        subspace._check_against(rho.shape)
        m = dagger(subspace.compression())
        out = m @ rho.mat @ dagger(m)
    else:
        copies = _power_checks(rho, copies)
        subspace._check_against(rho.shape, copies)
        out = _power_sandwich(rho, copies, subspace.compression())
    weights, live, states = _normalized_stack(out[np.newaxis])
    if not live[0]:
        return _outcome(0.0, None, 0, ())
    codes, ranks, _ = _classify_stack(states.reshape(-1), ((subspace.dims, 1),), tol)
    state = DensityMatrix._derived(subspace.subspace_shape(), states[0])
    return _outcome(float(weights[0]), state, int(codes[0]), ranks[0])


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
    - ``sizes[p][i]``: the ``i``-th subset's size;
    - ``offsets[p][i, :m]``: the flat-index offsets, in the power's basis,
      of the ``i``-th subset's ``m`` indices, ascending;
    - ``pairs[p][i, a * d + b]``: 1.0 when the ``i``-th subset holds ``a``
      and ``b``.
    """
    subsets = tuple(_subset_indices(d) for d in dims)
    members = tuple(
        _read_only(np.array([[a in idx for a in range(d)] for idx in s], float)) for s, d in zip(subsets, dims)
    )
    sizes = tuple(_read_only(m.sum(axis=1).astype(np.intp)) for m in members)
    offsets = tuple(
        _read_only(np.array([idx + (0,) * (d - len(idx)) for idx in s], dtype=np.intp) * prod(dims[p + 1:]))
        for p, (s, d) in enumerate(zip(subsets, dims))
    )
    pairs = tuple(_read_only((m[:, :, np.newaxis] * m[:, np.newaxis, :]).reshape(len(m), -1)) for m in members)
    return subsets, members, sizes, offsets, pairs


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
    * prod mats[j][i_j, t_j]``.  The axes left over come first."""
    for m in mats:
        tensor = np.tensordot(tensor, m, axes=(0, 1))
    return tensor


class _SearchContext:
    """One search over ``rho^(x copies)``: the cap check on the power's
    shape, the power, the resolved bases, the power in the search basis
    (``local = U† rho U`` for ``U = kron_all(bases)``) and the
    :func:`_tables` of the power's local dims.  The screen's eigenpairs
    come from the single copy; the blocks that classification reads come
    from ``local``.

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
        self.single, self.copies = rho, copies
        self.rho = tensor_power(rho, copies)
        self.shape = self.rho.shape
        self.tol = tol
        self.bases = _resolve_bases(self.shape, bases)
        self.change = kron_all(self.bases)
        self.local = dagger(self.change) @ self.rho.mat @ self.change
        self.subsets, self.members, self.sizes, self.offsets, self.pairs = _tables(self.shape.dims)

    def group(self, sizes: Sequence[int]) -> np.ndarray:
        """The canonical positions, ascending, of the candidates whose subset
        for party ``p`` has ``sizes[p]`` elements."""
        picks = np.ix_(*(np.flatnonzero(s == k) for s, k in zip(self.sizes, sizes)))
        return np.ravel_multi_index(picks, [len(s) for s in self.subsets]).ravel()

    def ensemble(self) -> np.ndarray:
        """The power's significant eigenvectors, scaled by sqrt(weight), in
        the product basis with one axis per party: restricting the party axes
        to a candidate's index sets reads off its unnormalized ensemble.  The
        eigenpairs are the single copy's products and regrouped Kronecker
        products (:func:`~dsskit.states._power_eigenpairs`), so one ``eigh``
        of the single copy's side runs and no decomposition of the power."""
        weights, vectors = _power_eigenpairs(self.single, self.copies, self.tol.rank_rtol)
        coords = dagger(self.change) @ vectors
        scaled = coords * np.sqrt(weights)[np.newaxis, :]
        return np.ascontiguousarray(scaled.T).reshape((len(weights),) + self.shape.dims)

    def screen(self, require_entangled: bool) -> tuple[np.ndarray, _ScreenCounts]:
        """Canonical positions of the candidates that may yield certificates.

        ``G[x, y] = sum_j E[j, x] conj(E[j, y])`` over the :meth:`ensemble`
        ``E`` is the state in the search basis, and a candidate ``S``'s
        unnormalized projection is ``G`` restricted to ``S x S``.  Each test
        below sums over basis states, or pairs of them, inside ``S``.  As
        ``S`` is a product of per-party subsets, such a sum contracts a kernel
        of at most ``D x D`` entries with each party's subset indicators, so
        all candidates are decided at once, one kernel at a time, in working
        memory O(D^2 + candidates).  A candidate is dropped as

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
        borderline candidates fall through to it.
        """
        dims = self.shape.dims
        flat = self.ensemble().reshape(-1, self.shape.total_dim)
        gram = flat.T @ np.conj(flat)

        weight = _contract(np.real(np.diagonal(gram)).reshape(dims), self.members)
        # by_pair[(x_1, y_1), ..., (x_k, y_k)] = |G[x, y]|^2: one pair axis per party.
        order = [a for p in range(len(dims)) for a in (p, p + len(dims))]
        by_pair = (np.abs(gram) ** 2).reshape(dims + dims).transpose(order)
        purity = _contract(by_pair.reshape([d * d for d in dims]), self.pairs)

        live = weight > ZERO_WEIGHT * 0.1
        norm = np.where(live, weight, 1.0) ** 2
        deficit = 1.0 - purity / norm
        mixed = live & (deficit > 20.0 * self.tol.purity_atol)
        keep = live & ~mixed
        counts = _ScreenCounts(int(np.count_nonzero(~live)), int(np.count_nonzero(mixed)))
        if require_entangled:
            grid = np.ix_(*self.sizes)
            width = prod(grid)
            product = keep
            index = np.arange(self.shape.total_dim).reshape(dims)
            for p, d in enumerate(dims):
                # block[b, a, a'] = G[(a, b), (a', b)], b over the other parties.
                rows = np.moveaxis(index, p, -1).reshape(-1, d)
                block = gram[rows[:, :, np.newaxis], rows[:, np.newaxis, :]]
                others = [m for q, m in enumerate(self.members) if q != p]
                # reduced[(a, a'), i_others] = the unnormalized reduced state's entry.
                reduced = _contract(block.reshape(dims[:p] + dims[p + 1:] + (d * d,)), others)
                purity_p = np.moveaxis(_contract(np.abs(reduced) ** 2, [self.pairs[p]]), -1, p) / norm
                shaped = (grid[p] == 1) | (width == grid[p])
                product = product & (shaped | (1.0 - purity_p + 2.0 * deficit <= 0.1 * self.tol.rank_rtol))
            counts.product = int(np.count_nonzero(product))
            keep = keep & ~product
        return np.flatnonzero(keep), counts

    def _rows(self, picks: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
        """The rows of ``local`` that the candidates ``picks`` (one array of
        subset numbers per party, all of per-party sizes ``sizes``) span,
        one row of ``prod(sizes)`` per candidate, in the order of
        :meth:`LocalSubspace.compression`'s columns."""
        n = len(picks[0])
        flat = np.zeros((n,) + (1,) * len(sizes), dtype=np.intp)
        for p, (pick, m) in enumerate(zip(picks, sizes)):
            axes = [n] + [1] * len(sizes)
            axes[p + 1] = m
            flat = flat + self.offsets[p][pick, :m].reshape(axes)
        return flat.reshape(n, -1)

    def _blocks(self, rows: np.ndarray) -> np.ndarray:
        """The compressions ``local[r x r]`` of the power for the row sets
        ``r`` in ``rows``, one per candidate, stacked: read by index."""
        return self.local[rows[:, :, np.newaxis], rows[:, np.newaxis, :]]

    def classify(self, positions: Sequence[int]) -> Iterator[tuple[LocalSubspace, ProjectionOutcome]]:
        """Each candidate at ``positions``, in that order: its subspace cut
        from the bases, and the outcome of the power on it.

        The blocks are read out of ``local`` by index, with no product or
        matrix multiply per candidate, a slice of a group of equal per-party
        sizes at a time, and each slice is normalized by one
        :func:`~dsskit.states._normalized_stack` call.  Once the slices read
        hold ``_SLICE_ENTRIES`` entries, and at the end, their nonzero blocks
        are flattened into one array, the slices are let go, and one
        :func:`_classify_stack` call, the kernel of :func:`project`, stacks
        the cores of all those blocks by side.  On computational bases the
        blocks, and so the outcomes, are bit-equal to :func:`project`'s on
        the power; on rotated ones they agree to roundoff.  A pure outcome
        keeps its block's weight and a copy of its normalized state.  A mixed
        one renormalizes its own block when it is yielded, so that no outcome
        keeps a batch alive.  ``smaller_cores`` counts the nonzero blocks
        whose core is strictly smaller than the block.
        """
        picks = np.unravel_index(np.asarray(positions, dtype=np.intp), [len(s) for s in self.subsets])
        sizes = np.stack([s[pick] for s, pick in zip(self.sizes, picks)], axis=-1)
        codes = np.zeros(len(sizes), dtype=np.int8)
        signatures = np.zeros(sizes.shape, dtype=np.int16)  # ranks <= MAX_SIDE
        weights = np.zeros(len(sizes))
        pure = {}  # a pure candidate's place in positions -> its normalized state
        pending = []  # (places, normalized nonzero blocks, sizes) per slice read
        self.smaller_cores = 0

        def classify_pending():
            which = np.concatenate([w for w, _, _ in pending])
            flat = np.concatenate([states.reshape(-1) for _, states, _ in pending])
            counts = tuple((tuple(group), len(w)) for w, _, group in pending)
            pending.clear()  # the slices go; flat holds their blocks
            got, ranks, smaller = _classify_stack(flat, counts, self.tol)
            codes[which], signatures[which] = got, ranks
            self.smaller_cores += int(np.count_nonzero(smaller))
            side = np.repeat([prod(group) for group, _ in counts], [n for _, n in counts])
            ends = np.cumsum(side * side)
            for j in np.flatnonzero(got >= 2).tolist():
                k = int(side[j])
                pure[int(which[j])] = flat[ends[j] - k * k : ends[j]].reshape(k, k).copy()

        # A candidate's per-party sizes as one mixed-radix number, to group by.
        keys = np.ravel_multi_index((sizes - 1).T, self.shape.dims)
        order = np.argsort(keys, kind="stable")
        firsts = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
        held = 0
        for first, end in zip(firsts, firsts[1:] + [len(order)]):
            members, group = order[first:end], sizes[order[first]].tolist()
            step = max(1, _SLICE_ENTRIES // prod(group) ** 2)
            for start in range(0, len(members), step):
                chunk = members[start : start + step]
                rows = self._rows([pick[chunk] for pick in picks], group)
                weights[chunk], live, states = _normalized_stack(self._blocks(rows))
                if len(states):
                    pending.append((chunk[live], states, group))
                    held += states.size
                del states  # pending holds the slice, and classify_pending lets it go
                if held >= _SLICE_ENTRIES:
                    classify_pending()
                    held = 0
        if pending:
            classify_pending()

        labels = self.shape.labels
        for i, pick in enumerate(zip(*picks)):
            indices = tuple(s[j] for s, j in zip(self.subsets, pick))
            subspace = LocalSubspace._from_checked(labels, self.bases, indices)
            weight, state = 0.0, None
            if codes[i]:
                shape = _subspace_shape(labels, subspace.dims)
                if i in pure:
                    weight, state = float(weights[i]), DensityMatrix._derived(shape, pure.pop(i))
                else:
                    rows = self._rows([np.array([j]) for j in pick], subspace.dims)
                    weight, state = _normalized(self._blocks(rows)[0], shape)
            yield subspace, _outcome(weight, state, codes[i], signatures[i])


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
    what is left by the kernel of :func:`project`, which re-verifies every
    returned certificate against the full state and supplies its weight and
    signature.  Each survivor's block is read by index out of the power in
    the search basis, formed once, and normalized with the others of its
    per-party subset sizes; a certificate's weight and state are its
    block's.  The pure test and the signature run on the block's core, the
    block without the indices whose rows are exactly zero.  The kernel
    takes the survivors in batches of about ``_SLICE_ENTRIES`` entries (one
    batch on most screened searches): each side of core takes one ``eigh``,
    and the pure ones one cut-rank SVD call.  The screen decides all candidates
    at once from the power's significant eigenpairs, which come from one
    ``eigh`` of the single copy (the products of its eigenvalues and the
    regrouped Kronecker products of its eigenvectors), by kernel
    contractions in memory O(D^2 + candidates) for side ``D``, with no
    eigensolver per candidate.  It drops candidates that are clearly
    zero-weight or clearly mixed: weight at most a tenth of ``ZERO_WEIGHT``,
    or purity deficit ``1 - tr(P^2) / tr(P)^2`` of the projection ``P``
    above ``20 * purity_atol``, which puts the residual weight beyond the
    top eigenvalue above ``10 * purity_atol`` of the weight.  With
    ``require_entangled`` it also drops candidates whose top eigenvector is
    clearly product: at every party cut a bound on its second squared
    Schmidt coefficient, from the reduced purities and the deficit, is at
    most ``0.1 * rank_rtol``.  Both margins are ten times the thresholds of
    :func:`project`, so pruned and unpruned searches return identical
    results.  ``prune=False`` runs no screen.

    One DEBUG record on the ``dsskit`` logger gives the candidates, those
    screened out as zero, mixed and product, those classified, those of
    them classified on a strictly smaller core (``smaller_cores``) and the
    certificates, and the seconds spent screening and classifying.
    """
    ctx = _SearchContext(rho, copies, bases, tol, candidate_cap)
    if min_signature is not None:
        min_signature = tuple(as_int(m, "min_signature") for m in min_signature)
        if len(min_signature) != len(rho.shape.parties):
            raise InvariantViolation("min_signature", "one entry per party required")

    start = time.perf_counter()
    if prune:
        positions, counts = ctx.screen(require_entangled)
    else:
        positions, counts = range(ctx.count), _ScreenCounts()
    screened = time.perf_counter()
    certificates = []
    for subspace, outcome in ctx.classify(positions):
        if outcome.classification == "pure-entangled" or (
            not require_entangled and outcome.classification == "pure-product"
        ):
            if min_signature is None or all(
                n >= m for n, m in zip(outcome.signature, min_signature)
            ):
                certificates.append(DssCertificate(subspace, outcome))
    classified = time.perf_counter()
    _logger.debug(
        "find_dss: %d candidates, screened out %d zero, %d mixed, %d product; "
        "%d classified (%d on a smaller core), %d certificates; screen %.6f s, classify %.6f s",
        ctx.count, counts.zero, counts.mixed, counts.product, len(positions), ctx.smaller_cores,
        len(certificates), screened - start, classified - screened,
        extra={
            "search_stats": {
                "candidates": ctx.count,
                "screened_zero": counts.zero,
                "screened_mixed": counts.mixed,
                "screened_product": counts.product,
                "classified": len(positions),
                "smaller_cores": ctx.smaller_cores,
                "certificates": len(certificates),
                "screen_s": screened - start,
                "classify_s": classified - screened,
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

    mixed = [(sub, outcome) for sub, outcome in ctx.classify(ctx.group((2, 2)))
             if outcome.classification == "mixed"]
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
