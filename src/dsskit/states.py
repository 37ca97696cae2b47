"""Multipartite state model.

Labelled system shapes, validated density matrices and pure states,
copy-regrouped tensor powers, and the preset states used by the worked
examples.  All value types are immutable.  A matrix from outside the
library (the public constructor, ``mixture``, the file loader) runs the
full check; a state derived from a checked one (a projection, an outcome,
a reduced state, a power) is stored unchecked by ``DensityMatrix._derived``
and keeps the invariants to roundoff over its weight: a projection of
weight 9e-12 can hold an eigenvalue of -3.6e-8.  A power is checked on the
single copy, its trace as tr(rho)**n, its spectrum as eigenvalue products.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass
from math import prod, sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionCapError, InvariantViolation
from .linalg import (
    MAX_SIDE,
    DEFAULT_TOLERANCE,
    ZERO_WEIGHT,
    Tolerance,
    as_int,
    as_matrix,
    as_vector,
    dagger,
    kron_all,
    partial_trace,
)

TRACE_ATOL = 1e-9
NORM_ATOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _stored(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given: no ``__post_init__``, so nothing is checked or converted."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Party:
    """One labelled party and the factorization of its local space.

    ``dims`` lists the party's subsystems in order (a single entry for a
    plain party; one entry per copy after :func:`tensor_power`).  The local
    dimension is their product, computed once at construction.
    """

    label: str
    dims: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise InvariantViolation("label", f"party label must be a nonempty string, got {self.label!r}")
        dims = tuple(as_int(d, "dims") for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise InvariantViolation("dims", f"party {self.label!r} has no subsystems")
        if any(d < 1 for d in dims):
            raise InvariantViolation("dims", f"party {self.label!r} has a subsystem of dim < 1: {dims}")
        # Not a dataclass field, so repr, == and hash ignore it.
        object.__setattr__(self, "_dim", prod(dims))

    @property
    def dim(self) -> int:
        return self._dim


def _as_party(entry) -> Party:
    if isinstance(entry, Party):
        return entry
    label, dims = entry
    return Party(str(label), (dims,) if np.ndim(dims) == 0 else tuple(dims))


@dataclass(frozen=True)
class SystemShape:
    """Ordered list of parties; fixes the tensor factorization of a state.

    Flat indices are most-significant-first in party order (and, within a
    party, in subsystem order).  The per-party and total dimensions are
    computed once at construction.
    """

    parties: tuple[Party, ...]

    def __post_init__(self):
        parties = tuple(_as_party(p) for p in self.parties)
        object.__setattr__(self, "parties", parties)
        if not parties:
            raise InvariantViolation("parties", "a system needs at least one party")
        labels = [p.label for p in parties]
        if len(set(labels)) != len(labels):
            raise InvariantViolation("labels", f"party labels must be unique, got {labels}")
        # Not dataclass fields, so repr, == and hash ignore them.
        dims = tuple(p.dim for p in parties)
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_total_dim", prod(dims))
        if self.total_dim > MAX_SIDE:
            raise DimensionCapError(
                f"total dimension {self.total_dim} exceeds the cap {MAX_SIDE}"
            )

    @classmethod
    def _derived(cls, parties: Iterable[tuple[str, tuple[int, ...]]]) -> "SystemShape":
        """The store-only constructor of a shape derived from a checked one,
        such as a power's or a subspace's, from ``(label, subsystem dims)``
        pairs: the caller passes a checked shape's labels and positive
        ``int`` dims whose product is within ``MAX_SIDE``, so nothing is
        checked."""
        parties = tuple(_stored(Party, label=label, dims=dims, _dim=prod(dims)) for label, dims in parties)
        dims = tuple(p.dim for p in parties)
        return _stored(cls, parties=parties, _dims=dims, _total_dim=prod(dims))

    @classmethod
    def of(cls, *specs) -> "SystemShape":
        """Build from ``(label, dim)`` or ``(label, dims-tuple)`` pairs."""
        return cls(tuple(_as_party(s) for s in specs))

    @classmethod
    def qubits(cls, labels: str | int) -> "SystemShape":
        """A register of single qubits, e.g. ``qubits("ABC")`` or ``qubits(3)``:
        built once per labels (shapes are immutable)."""
        if isinstance(labels, int):
            labels = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:labels]
        return _qubits(tuple(labels))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.parties)

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-party local dimensions."""
        return self._dims

    @property
    def total_dim(self) -> int:
        return self._total_dim

    def party_index(self, label: str) -> int:
        for i, p in enumerate(self.parties):
            if p.label == label:
                return i
        raise InvariantViolation("label", f"no party labelled {label!r} in {self.labels}")

    def party(self, label: str) -> Party:
        return self.parties[self.party_index(label)]


@functools.lru_cache(maxsize=64)
def _qubits(labels: tuple[str, ...]) -> SystemShape:
    return SystemShape(tuple(Party(ch, (2,)) for ch in labels))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m†)/2`` of a matrix, or of each in a stack: fresh, exactly
    Hermitian, rid of a product's roundoff."""
    h = m + np.conj(m.swapaxes(-1, -2))
    h /= 2.0
    return h


def _outer(vec) -> np.ndarray:
    """``|v><v|`` as ``np.outer(v, conj(v))``; for a :class:`PureState`, its
    stored projector."""
    if isinstance(vec, PureState):
        return vec._projector
    v = as_vector(vec)
    return np.outer(v, np.conj(v))


def _mixed(shape: SystemShape, terms: Iterable[tuple]) -> np.ndarray:
    """``sum w |v><v|`` over (weight, vector) terms, added in order to a
    zero matrix; a vector may be a :class:`PureState`.  A weight may be an
    array of shape ``(batch,)``, which gives the stack ``(batch, d, d)`` of
    the mixtures, one per entry, each summed as the single one is."""
    d = shape.total_dim
    mat = np.zeros((d, d), dtype=np.complex128)
    for w, vec in terms:
        mat = mat + np.multiply.outer(w, _outer(vec))
    return mat


def _validated_stack(shape: SystemShape, mats: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The read-only Hermitian parts of a stack ``(batch, d, d)`` of
    matrices and their eigenvalues ``(batch, d)``, ascending and read-only,
    once each passes the density matrix checks: side, hermiticity to
    ``tol.herm_atol``, unit trace, and positivity to ``tol.psd_atol`` of
    the eigenvalues of the Hermitian part, each check over the whole stack
    before the next.  The first matrix that fails a check names it, with
    its own deviation, trace or eigenvalue.  One stacked ``eigvalsh`` call
    serves the stack, and it decomposes each matrix on its own: each row is
    bit-equal to ``eigvalsh`` of that matrix alone."""
    d = shape.total_dim
    if mats.shape[1:] != (d, d):
        raise InvariantViolation(
            "dimension",
            f"matrix side {mats.shape[1:]} does not match shape total dim {d}",
        )
    deviations = np.abs(mats - np.conj(mats.swapaxes(-1, -2))).max(axis=(-2, -1))
    if deviations.max() > tol.herm_atol:
        first = np.extract(deviations > tol.herm_atol, deviations)[0]
        raise InvariantViolation(
            "hermitian", f"density matrix is not Hermitian (max deviation {float(first):.3e})"
        )
    mats = _hermitian_part(mats)
    _require_unit_trace(mats.trace(axis1=-2, axis2=-1).real)
    spectra = np.linalg.eigvalsh(mats)
    _require_psd(spectra, tol)
    return _read_only(mats), _read_only(spectra)


def _require_unit_trace(traces) -> None:
    """Raise for the first of ``traces`` (a number or an array) off 1."""
    off = np.abs(np.subtract(traces, 1.0))
    if off.max() > TRACE_ATOL:
        first = np.extract(off > TRACE_ATOL, traces)[0]
        raise InvariantViolation("trace", f"trace must be 1, got {float(first)!r}")


def _require_psd(spectra: np.ndarray, tol: Tolerance) -> None:
    """Raise for the first of ``spectra`` (one spectrum, or one per row of
    a stack) with an eigenvalue below ``-tol.psd_atol``."""
    lowest = spectra.min(axis=-1)
    if lowest.min() < -tol.psd_atol:
        first = np.extract(lowest < -tol.psd_atol, lowest)[0]
        raise InvariantViolation(
            "positive-semidefinite", f"density matrix has a negative eigenvalue {float(first):.3e}"
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, positive-semidefinite, unit-trace matrix over a shape; built
    directly, it is checked (see the module docstring) to ``tol``, by
    default ``DEFAULT_TOLERANCE``; ``tol`` is not stored.  No provenance.

    A state keeps its eigenvalues (:attr:`_spectrum`): the public
    constructor stores those its check computed, and a derived state
    computes them on first use."""

    shape: SystemShape
    mat: np.ndarray
    tol: InitVar[Tolerance | None] = None

    def __post_init__(self, tol: Tolerance | None):
        tol = DEFAULT_TOLERANCE if tol is None else tol
        mats, spectra = _validated_stack(self.shape, as_matrix(self.mat)[np.newaxis], tol)
        object.__setattr__(self, "mat", mats[0])
        # Shadows the cached property below: the check's eigvalsh is stored.
        object.__setattr__(self, "_spectrum", spectra[0])

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """``eigvalsh(mat)``, ascending and read-only, computed once; not a
        dataclass field, so repr ignores it.  ``mat`` is immutable, so it
        stays valid.  :func:`_power_spectrum` reads it."""
        return _read_only(np.linalg.eigvalsh(self.mat))

    @functools.cached_property
    def _power_spectra(self) -> dict[int, np.ndarray]:
        """The eigenvalue products of :func:`_power_spectrum`, by copy count."""
        return {}

    @classmethod
    def _derived(cls, shape: SystemShape, mat: np.ndarray) -> "DensityMatrix":
        """The one store-only constructor: a state derived from a checked one,
        stored read-only unchecked.  ``mat`` must be exactly Hermitian, as
        :func:`_power_checks` assumes; see :func:`_hermitian_part`."""
        mat.setflags(write=False)
        return _stored(cls, shape=shape, mat=mat)

    @classmethod
    def from_pure(cls, psi: "PureState") -> "DensityMatrix":
        # A fused complex multiply leaves v_i v_j* and v_j v_i* inexact conjugates.
        v = psi.amplitudes
        return cls._derived(psi.shape, _hermitian_part(np.outer(v, np.conj(v))))

    @classmethod
    def mixture(cls, shape: SystemShape, terms: Iterable[tuple[float, np.ndarray | PureState]]) -> "DensityMatrix":
        """Convex mixture of pure components given as (weight, vector)
        pairs.  A vector may be a :class:`PureState`, whose projector is
        formed once per state."""
        return cls(shape, _mixed(shape, ((float(w), vec) for w, vec in terms)))

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues descending, eigenvectors as columns; ``mat`` is exactly Hermitian."""
        w, v = np.linalg.eigh(self.mat)
        return w[::-1].copy(), v[:, ::-1].copy()

    def top_eigenstate(self) -> "PureState":
        _, v = self.eigh()
        return PureState(self.shape, v[:, 0])

    def reduced(self, labels: Iterable[str]) -> "DensityMatrix":
        """Reduced state on the named parties (order as in the shape)."""
        labels = set(labels)
        keep = [i for i, p in enumerate(self.shape.parties) if p.label in labels]
        missing = labels - {p.label for p in self.shape.parties}
        if missing:
            raise InvariantViolation("label", f"unknown parties {sorted(missing)}")
        red = partial_trace(self.mat, self.shape.dims, keep)
        sub = SystemShape(tuple(self.shape.parties[i] for i in keep))
        return DensityMatrix._derived(sub, red)


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit-norm state vector over a shape."""

    shape: SystemShape
    amplitudes: np.ndarray

    def __post_init__(self):
        vec = as_vector(self.amplitudes)
        d = self.shape.total_dim
        if vec.size != d:
            raise InvariantViolation(
                "dimension", f"vector length {vec.size} does not match shape total dim {d}"
            )
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise InvariantViolation("norm", f"state vector norm must be 1, got {nrm!r}")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @functools.cached_property
    def _projector(self) -> np.ndarray:
        """``|v><v|`` as :meth:`DensityMatrix.mixture` adds it, read-only,
        formed once; not a dataclass field."""
        return _read_only(_outer(self.amplitudes))

    def to_density(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self)

    def reduced(self, labels: Iterable[str]) -> DensityMatrix:
        return self.to_density().reduced(labels)


def fidelity_with_pure(rho: DensityMatrix, psi: PureState) -> float:
    """``<psi| rho |psi>``; requires matching total dimensions."""
    if rho.shape.total_dim != psi.shape.total_dim:
        raise InvariantViolation("dimension", "state and reference dimensions differ")
    v = psi.amplitudes
    return float(np.real(np.conj(v) @ rho.mat @ v))


def _post_select(
    rho: DensityMatrix, m: np.ndarray, shape: SystemShape
) -> tuple[float, DensityMatrix | None]:
    """Apply ``m`` and renormalize: :func:`_normalized` of ``m rho m†``."""
    return _normalized(m @ rho.mat @ dagger(m), shape)


def _normalized_stack(out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule of every post-selected state update, on a stack ``(batch, k,
    k)`` of unnormalized states: the weights ``tr(out)``, the mask of those
    that exceed ``ZERO_WEIGHT``, and the states ``out / weight`` of the
    masked ones, stacked in order.  Each state is the Hermitian part of the
    quotient, as the division scales ``out``'s roundoff by 1/weight; a
    block's weight and state do not depend on the rest of the stack."""
    weights = out.trace(axis1=-2, axis2=-1).real
    live = weights > ZERO_WEIGHT
    kept = (out, weights) if np.count_nonzero(live) == len(live) else (out[live], weights[live])
    return weights, live, _hermitian_part(kept[0] / kept[1][:, np.newaxis, np.newaxis])


def _normalized(out: np.ndarray, shape: SystemShape) -> tuple[float, DensityMatrix | None]:
    """The weight ``tr(out)`` of an unnormalized post-selected state and the
    state ``out / weight`` on ``shape``, or None when the weight does not
    exceed ``ZERO_WEIGHT``: :func:`_normalized_stack` on a stack of one.
    Every post-selected state update goes through here; each caller keeps
    its own probability bookkeeping.  The state is stored unchecked."""
    weights, live, states = _normalized_stack(out[np.newaxis])
    if not live[0]:
        return float(weights[0]), None
    return float(weights[0]), DensityMatrix._derived(shape, states[0])


def _checked_copies(rho: DensityMatrix, n: int) -> int:
    """``n`` as a copy count of ``rho``: an integer ``>= 1`` whose power
    stays within ``MAX_SIDE``."""
    n = as_int(n, "copies")
    if n < 1:
        raise InvariantViolation("copies", f"copies must be >= 1, got {n}")
    total = rho.shape.total_dim**n
    if total > MAX_SIDE:
        raise DimensionCapError(
            f"{n} copies give total dimension {total}, above the cap {MAX_SIDE}"
        )
    return n


def _party_major(shape: SystemShape, n: int) -> tuple[tuple[int, ...], list[int], SystemShape]:
    """How ``n`` copies over ``shape`` regroup party-major: the per-party
    axis sizes of the copy-major kron, the axis order that puts each party's
    copies side by side, and the regrouped shape.  ``n`` must have passed
    :func:`_checked_copies`, so the shape is stored unchecked."""
    k = len(shape.parties)
    order = [c * k + p for p in range(k) for c in range(n)]
    return shape.dims * n, order, SystemShape._derived((p.label, p.dims * n) for p in shape.parties)


def _power_shape(rho: DensityMatrix, n: int) -> SystemShape:
    """The shape of ``tensor_power(rho, n)``, with its copies and cap errors; nothing built."""
    return _party_major(rho.shape, _checked_copies(rho, n))[2]


def _power_spectrum(rho: DensityMatrix, n: int) -> np.ndarray:
    """The eigenvalues of ``rho``'s ``n``-th tensor power, unsorted and
    read-only: the ``n``-fold products of ``rho``'s stored eigenvalues
    (Horn & Johnson, *Topics in Matrix Analysis*, Thm 4.2.12), formed once
    per state and ``n``.  Regrouping the copies is a permutation
    similarity, so it leaves them unchanged.  Raises where
    :func:`tensor_power` would: for ``n < 1`` and above ``MAX_SIDE``."""
    return _power_products(rho, _checked_copies(rho, n))


def _power_products(rho: DensityMatrix, n: int) -> np.ndarray:
    """:func:`_power_spectrum` for an ``n`` that passed :func:`_checked_copies`."""
    spectrum = rho._power_spectra.get(n)
    if spectrum is None:
        base = spectrum = rho._spectrum
        for _ in range(n - 1):
            spectrum = np.multiply.outer(spectrum, base).reshape(-1)
        rho._power_spectra[n] = _read_only(spectrum)
    return spectrum


def _power_checks(rho: DensityMatrix, n: int, tol: Tolerance) -> int:
    """``n`` as a copy count of ``rho`` once ``rho``'s ``n``-th tensor power
    passes the density matrix checks to ``tol``, all made on the single copy.

    ``n`` must be an integer ``>= 1`` whose power stays within
    ``MAX_SIDE``.  The power's trace, ``tr(rho)**n``, must be 1 to
    ``TRACE_ATOL``; a copy inside that margin can leave its power outside.
    Its eigenvalues, the products :func:`_power_spectrum` gives, must pass
    the positivity check against ``tol.psd_atol``, as a state file does.
    Hermiticity needs no check: ``rho.mat`` is exactly Hermitian, and so is
    every Kronecker product of it, entry by entry.  Nothing of side
    ``d**n`` is allocated.  :func:`tensor_power` runs these checks, and so
    does :func:`~dsskit.subspaces.project` at ``n > 1`` before it reads the
    power's block (:func:`_power_block` or :func:`_power_sandwich`).
    """
    n = _checked_copies(rho, n)
    _require_unit_trace(float(rho.mat.trace().real) ** n)
    _require_psd(_power_products(rho, n), tol)
    return n


def tensor_power(rho: DensityMatrix, n: int, tol: Tolerance | None = None) -> DensityMatrix:
    """``n`` copies of ``rho``, regrouped so each party holds all its copies.

    The flat kron of copies orders subsystems copy-major; here rows and
    columns are explicitly permuted to party-major order, so party ``A``
    holds its copy-1 subsystems followed by copy-2 and so on, contiguously.
    Local subspaces of a party's enlarged space are then contiguous blocks.

    The result is checked to ``tol`` (by default ``DEFAULT_TOLERANCE``, as
    for the public constructor) by :func:`_power_checks` on the single copy,
    so no dense pass and no eigendecomposition of side ``d**n`` runs.
    The matrix is the one the public constructor would store, with no link
    back to ``rho``.  The library's functions take ``(rho, copies=n)``
    instead: ``project`` builds no power, and the searches build it only
    once their candidate cap holds.
    """
    n = as_int(n, "copies")
    if n == 1:
        return rho
    n = _power_checks(rho, n, DEFAULT_TOLERANCE if tol is None else tol)
    axes, order, shape = _party_major(rho.shape, n)
    perm = order + [len(axes) + o for o in order]
    total = shape.total_dim
    big = kron_all([rho.mat] * n)
    mat = big.reshape(axes * 2).transpose(perm).reshape(total, total)
    return DensityMatrix._derived(shape, mat)


def _power_sandwich(rho: DensityMatrix, n: int, b: np.ndarray) -> np.ndarray:
    """``b† σ b`` for ``σ = tensor_power(rho, n)``, without forming ``σ``.

    ``b`` is a ``d**n x k`` matrix whose rows follow ``σ``'s party-major
    order, e.g. a subspace compression.  Its rows are regrouped copy-major
    once; then ``rho`` acts on each copy's axis in turn, ``n`` contractions
    of length ``d`` (the mixed-product property of the Kronecker product,
    Horn & Johnson, *Topics in Matrix Analysis*, ch. 4): ``O(n d**(n+1) k)``
    work and ``O(d**n k)`` memory, against ``d**(2n)`` for ``σ``.  ``n``
    must have passed :func:`_power_checks`.

    Each contraction is a sum of elementwise products, earlier copies times
    the next copy as in :func:`~dsskit.linalg.kron_all`, and the result
    agrees with the dense ``b† σ b`` to roundoff.  :func:`~dsskit.subspaces.project`
    calls it only for subspaces whose columns are not all computational
    basis vectors; those take :func:`_power_block`.
    """
    dims = rho.shape.dims
    d, k = rho.shape.total_dim, b.shape[1]
    party_major = [dp for dp in dims for _ in range(n)] + [k]
    to_copy_major = [p * n + c for c in range(n) for p in range(len(dims))] + [len(dims) * n]
    b = b.reshape(party_major).transpose(to_copy_major).reshape(-1, k)
    x = b.reshape(d, -1)
    for _ in range(n):
        # Contract the leading copy axis, then rotate it to the back so the
        # next copy leads and every product runs over a long inner axis.
        acc = x[:1] * rho.mat[:, :1]
        for j in range(1, d):
            acc += x[j : j + 1] * rho.mat[:, j : j + 1]
        x = acc.T.reshape(d, -1)
    # The rotations have brought the column axis to the front.
    return dagger(b) @ x.reshape(k, -1).T


def _power_block(rho: DensityMatrix, n: int, picks: Sequence[Sequence[int]]) -> np.ndarray:
    """``tensor_power(rho, n).mat[np.ix_(rows, rows)]`` without forming the
    power, where ``rows`` are the party-major flat indices of the product of
    per-party local indices ``picks`` (each party's indices into its ``n``
    copies, in the given order; the first party most significant).

    An entry of the power is the product of ``n`` single-copy entries, one
    per copy (Horn & Johnson, *Topics in Matrix Analysis*, ch. 4).  So each
    copy's single-copy indices of the rows are read off the picks, ``rho``
    is gathered at them, and the ``n`` gathers are multiplied left to right,
    earlier copies times the next as in :func:`~dsskit.linalg.kron_all`:
    each entry is bit-equal to the one the dense power holds.  That is
    ``O(n k**2)`` work for ``k`` rows.  ``n`` must have passed
    :func:`_checked_copies`.
    """
    # index[c] holds copy c's single-copy index of each row, in kron order:
    # n*k small integers, built in Python, against the n*k**2 entries read.
    index = [[0] for _ in range(n)]
    for d, pick in zip(rho.shape.dims, picks):
        for c in range(n):
            scale = d ** (n - 1 - c)
            digits = [local // scale % d for local in pick]
            index[c] = [i * d + digit for i in index[c] for digit in digits]
    index = np.array(index)
    gathered = rho.mat[index[:, :, np.newaxis], index[:, np.newaxis, :]]
    block = gathered[0]
    for c in range(1, n):
        block = block * gathered[c]
    return block


def _power_vectors(rho: DensityMatrix, n: int, vecs: np.ndarray) -> np.ndarray:
    """The ``n``-fold Kronecker products of the columns of ``vecs`` (``d x
    r``, vectors of ``rho``'s space), regrouped party-major as
    :func:`tensor_power` regroups ``rho``: column ``(j_1, ..., j_n)``,
    lexicographic, is ``vecs[:, j_1] (x) ... (x) vecs[:, j_n]``.  ``n``
    must have passed :func:`_checked_copies`."""
    axes, order, _ = _party_major(rho.shape, n)
    big = kron_all([vecs] * n)
    return big.reshape(axes + (-1,)).transpose(order + [len(axes)]).reshape(big.shape)


def _power_top_eigenstate(rho: DensityMatrix, n: int) -> PureState:
    """The top eigenvector of ``tensor_power(rho, n)`` without forming the
    power: the :func:`_power_vectors` of ``rho``'s top eigenvector, at
    eigenvalue ``l1**n``.  That eigenvalue is simple, and its eigenvector
    unique up to phase, when ``rho``'s top eigenvalue ``l1`` exceeds 1/2
    (every other eigenvalue of the power is at most ``l1**(n-1) * (1 -
    l1)``); below that this raises."""
    n = _checked_copies(rho, n)
    w, v = rho.eigh()
    if w[0] <= 0.5:
        raise InvariantViolation(
            "degenerate",
            f"top eigenvalue {w[0]:.6g} <= 1/2 leaves the power's top eigenvector ambiguous",
        )
    return PureState(_party_major(rho.shape, n)[2], _power_vectors(rho, n, v[:, :1])[:, 0])


# ---------------------------------------------------------------------------
# Preset states
# ---------------------------------------------------------------------------


def _index(index, dim: int) -> int:
    """``index`` as an integer in ``0..dim-1``; a negative one does not wrap."""
    index = as_int(index, "index")
    if not 0 <= index < dim:
        raise InvariantViolation("index", f"index {index} out of range 0..{dim - 1}")
    return index


def basis_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(as_int(dim, "dim"), dtype=np.complex128)
    v[_index(index, v.size)] = 1.0
    return v


def product_basis_vector(shape: SystemShape, occupations: Sequence[int]) -> np.ndarray:
    """Computational product vector, one occupation index per party: the
    one-hot vector at the most-significant-first flat index."""
    if len(occupations) != len(shape.parties):
        raise InvariantViolation("occupations", "one index per party required")
    flat = 0
    for p, occ in zip(shape.parties, occupations):
        flat = flat * p.dim + _index(occ, p.dim)
    return basis_vector(shape.total_dim, flat)


# The presets' parameter-free parts, built once per process and read-only,
# their projectors too: a preset call sums and checks only its weighted
# mixture.
_AB, _ABC = SystemShape.qubits("AB"), SystemShape.qubits("ABC")
_S = 1.0 / sqrt(2.0)
_BELL_STATES = {
    kind: PureState(_AB, np.array(entries, dtype=np.complex128))
    for kind, entries in (
        ("phi+", [_S, 0, 0, _S]),
        ("phi-", [_S, 0, 0, -_S]),
        ("psi+", [0, _S, _S, 0]),
        ("psi-", [0, _S, -_S, 0]),
    )
}


def _ket(*occupations: int) -> np.ndarray:
    return product_basis_vector(_ABC if len(occupations) == 3 else _AB, occupations)


_GHZ = PureState(_ABC, (_ket(0, 0, 0) + _ket(1, 1, 1)) / sqrt(2.0))
_W = PureState(_ABC, (_ket(1, 0, 0) + _ket(0, 1, 0) + _ket(0, 0, 1)) / sqrt(3.0))
_W_VARIANT = PureState(_ABC, (_ket(1, 0, 0) + _ket(0, 1, 0) + _ket(0, 1, 1)) / sqrt(3.0))
_PRODUCT_011 = PureState(_ABC, _ket(0, 1, 1))
#: :func:`filter_example`'s psi and |01>.
_FILTER_VECTORS = (_read_only(sqrt(3.0) / 2.0 * _ket(0, 0) + 0.5 * _ket(1, 1)), _read_only(_ket(0, 1)))


def bell_vectors() -> dict[str, np.ndarray]:
    """The four Bell vectors on two qubits, keyed phi+/phi-/psi+/psi-: a
    fresh dict of shared, read-only vectors."""
    return {kind: psi.amplitudes for kind, psi in _BELL_STATES.items()}


def bell_state(kind: str = "phi+") -> PureState:
    if kind not in _BELL_STATES:
        raise InvariantViolation("kind", f"unknown Bell state {kind!r}, expected one of {sorted(_BELL_STATES)}")
    return _BELL_STATES[kind]


def werner(F: float) -> DensityMatrix:
    """Werner state ``F [phi+] + (1-F)/3 ([phi-] + [psi+] + [psi-])``."""
    F = float(F)
    if not 0.0 <= F <= 1.0:
        raise InvariantViolation("F", f"F must lie in [0, 1], got {F}")
    q = (1.0 - F) / 3.0
    weights = {"phi+": F, "phi-": q, "psi+": q, "psi-": q}
    return DensityMatrix.mixture(_AB, [(w, _BELL_STATES[kind]) for kind, w in weights.items()])


def ghz_state() -> PureState:
    """``(|000> + |111>)/sqrt(2)`` on three qubits A, B, C."""
    return _GHZ


def w_state() -> PureState:
    """The standard W state ``(|100> + |010> + |001>)/sqrt(3)``."""
    return _W


def w_state_variant() -> PureState:
    """A W-type state with components |100>, |010>, |011>.

    Note the third component is |011>, not the standard |001>; this variant
    is kept alongside :func:`w_state` because both appear in circulation.
    Its single-party reduced ranks are (2, 2, 2), like the standard W.
    """
    return _W_VARIANT


def three_qubit_example(p: float) -> DensityMatrix:
    """``p [GHZ] + (1-p) [|011>]`` on three qubits.

    The single-copy state admits no distillable subspace over computational
    subsets, while two copies do; it drives the GHZ distillation example.
    """
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise InvariantViolation("p", f"p must lie in (0, 1], got {p}")
    return DensityMatrix.mixture(_ABC, [(p, _GHZ), (1.0 - p, _PRODUCT_011)])


def _filter_lambda(lam) -> float:
    """``lam`` as :func:`filter_example`'s mixing weight, in ``(0, 1]``."""
    lam = float(lam)
    if not 0.0 < lam <= 1.0:
        raise InvariantViolation("lambda", f"lambda must lie in (0, 1], got {lam}")
    return lam


def _filter_terms(lam) -> list[tuple]:
    """The (weight, vector) terms of :func:`filter_example`; ``lam`` is a
    checked weight, or an array of them for a stack of the states."""
    psi, product = _FILTER_VECTORS
    return [(lam, psi), (1.0 - lam, product)]


def filter_example(lam: float) -> DensityMatrix:
    """``lam [psi] + (1-lam) [|01>]`` with ``psi = (sqrt(3)/2)|00> + (1/2)|11>``.

    A rank-2 two-qubit mixture whose entanglement of formation a local
    filter can raise; see :func:`dsskit.entanglement.filter_comparison`.
    """
    return DensityMatrix.mixture(_AB, _filter_terms(_filter_lambda(lam)))


def _filter_example_stack(lams: np.ndarray) -> np.ndarray:
    """The matrices of ``filter_example(lam)`` for an array of checked
    weights, as one read-only stack: the terms summed and the states
    checked by :func:`_validated_stack`, as the single state is built and
    checked, entry by entry."""
    return _validated_stack(_AB, _mixed(_AB, _filter_terms(lams)), DEFAULT_TOLERANCE)[0]
