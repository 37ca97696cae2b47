"""Multipartite state model.

Labelled system shapes, validated density matrices and pure states,
copy-regrouped tensor powers, and the preset states used by the worked
examples.  All value types are immutable.  A matrix from outside the
library (the public constructor, ``mixture``, the file loader) runs the
full check; a state derived from a checked one (a projection, an outcome,
a reduced state, a power) is stored unchecked by ``DensityMatrix._derived``
and keeps the invariants to roundoff over its weight: a projection of
weight 9e-12 can hold an eigenvalue of -3.6e-8.

A tensor power is read through one object, ``_Power(rho, n)``: its copy
count, cap and party-major regrouping are checked and formed once, and it
reads the power's spectrum (cached on the state per copy count), blocks,
compressions and product vectors from the single copy.  It is checked on
the single copy, its trace as tr(rho)**n, its spectrum as eigenvalue
products.  Only :func:`tensor_power` forms a power's dense matrix.
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
        stays valid.  :attr:`_Power.spectrum` reads it."""
        return _read_only(np.linalg.eigvalsh(self.mat))

    @functools.cached_property
    def _spectra(self) -> dict[int, np.ndarray]:
        """The :attr:`_Power.spectrum` of each of this state's powers, by copy count."""
        return {}

    @classmethod
    def _derived(cls, shape: SystemShape, mat: np.ndarray) -> "DensityMatrix":
        """The one store-only constructor: a state derived from a checked one,
        stored read-only unchecked.  ``mat`` must be exactly Hermitian, as
        :meth:`_Power.checked` assumes; see :func:`_hermitian_part`."""
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


class _Power:
    """``n`` copies of a state, regrouped party-major as :func:`tensor_power`
    regroups them, and read from the single copy without forming the power.

    ``_Power(single, n)`` is the one home of a copy count: it checks ``n``
    (an integer ``>= 1`` whose power stays within ``MAX_SIDE``) once and
    forms the per-copy axis sizes of the copy-major kron (``axes``), the
    axis ``order`` that puts each party's copies side by side and, on first
    use, the regrouped ``shape``.  Each read below works from ``single`` and
    allocates nothing of side ``d**n`` but its result.  The object is a
    read-only view, made per call: the state caches only the
    :attr:`spectrum`, as an object that pointed back at its state from the
    state's own cache would tie the two in a reference cycle."""

    def __init__(self, single: DensityMatrix, n: int):
        n = as_int(n, "copies")
        if n < 1:
            raise InvariantViolation("copies", f"copies must be >= 1, got {n}")
        total = single.shape.total_dim**n
        if total > MAX_SIDE:
            raise DimensionCapError(f"{n} copies give total dimension {total}, above the cap {MAX_SIDE}")
        k = len(single.shape.parties)
        self.single, self.n, self.axes = single, n, single.shape.dims * n
        self.order = tuple(c * k + p for p in range(k) for c in range(n))

    @functools.cached_property
    def shape(self) -> SystemShape:
        """The regrouped shape, each party holding its ``n`` copies'
        subsystems; at ``n = 1`` the state's own."""
        single = self.single
        if self.n == 1:
            return single.shape
        return SystemShape._derived((p.label, p.dims * self.n) for p in single.shape.parties)

    @property
    def spectrum(self) -> np.ndarray:
        """The power's eigenvalues, unsorted and read-only: the ``n``-fold
        products of the single copy's stored eigenvalues (Horn & Johnson,
        *Topics in Matrix Analysis*, Thm 4.2.12), formed once per state and
        ``n`` (:attr:`DensityMatrix._spectra`).  Regrouping the copies is a
        permutation similarity, so it leaves them unchanged."""
        spectrum = self.single._spectra.get(self.n)
        if spectrum is None:
            spectrum = base = self.single._spectrum
            for _ in range(self.n - 1):
                spectrum = np.multiply.outer(spectrum, base).reshape(-1)
            self.single._spectra[self.n] = _read_only(spectrum)
        return spectrum

    def checked(self, tol: Tolerance) -> "_Power":
        """This power once it passes the density matrix checks to ``tol``,
        all made on the single copy; at ``n = 1``, where the power is the
        state, nothing is checked.

        The trace, ``tr(rho)**n``, must be 1 to ``TRACE_ATOL``: a copy inside
        that margin can leave its power outside.  The :attr:`spectrum` must
        pass the positivity check against ``tol.psd_atol``, as a state file
        does.  Hermiticity needs no check: a stored ``mat`` is exactly
        Hermitian (:meth:`DensityMatrix._derived`), and so is every Kronecker
        product of it, entry by entry."""
        if self.n > 1:
            _require_unit_trace(float(self.single.mat.trace().real) ** self.n)
            _require_psd(self.spectrum, tol)
        return self

    def block(self, picks: Sequence[Sequence[int]]) -> np.ndarray:
        """``tensor_power(single, n).mat[np.ix_(rows, rows)]``, where ``rows``
        are the flat indices of the product of per-party local indices
        ``picks`` (each party's indices into its ``n`` copies, in the given
        order; the first party most significant).

        An entry of the power is the product of ``n`` single-copy entries, one
        per copy (Horn & Johnson, *Topics in Matrix Analysis*, ch. 4).  So each
        copy's single-copy indices of the rows are read off the picks, the
        single copy is gathered at them, and the ``n`` gathers are multiplied
        left to right, earlier copies times the next as in
        :func:`~dsskit.linalg.kron_all`: each entry is bit-equal to the one
        the dense power holds.  That is ``O(n k**2)`` work for ``k`` rows.
        """
        n = self.n
        # index[c] holds copy c's single-copy index of each row, in kron order:
        # n*k small integers, built in Python, against the n*k**2 entries read.
        index = [[0] for _ in range(n)]
        for d, pick in zip(self.single.shape.dims, picks):
            for c in range(n):
                scale = d ** (n - 1 - c)
                digits = [local // scale % d for local in pick]
                index[c] = [i * d + digit for i in index[c] for digit in digits]
        index = np.array(index)
        gathered = self.single.mat[index[:, :, np.newaxis], index[:, np.newaxis, :]]
        block = gathered[0]
        for c in range(1, n):
            block = block * gathered[c]
        return block

    def sandwich(self, b: np.ndarray) -> np.ndarray:
        """``b† σ b`` for the power ``σ``, for a ``d**n x k`` matrix ``b``
        whose rows follow ``σ``'s party-major order, e.g. a subspace
        compression.

        At ``n = 1`` it is the dense product ``m rho m†`` for ``m = b†``,
        kept for its bytes: the contraction below differs from it in the
        last bits on most rotated subspaces.  At ``n > 1`` ``σ`` is never
        formed.  The rows of ``b`` are regrouped copy-major once; then the
        single copy acts on each copy's axis in turn, ``n`` contractions of
        length ``d`` (the mixed-product property of the Kronecker product,
        Horn & Johnson, *Topics in Matrix Analysis*, ch. 4): ``O(n d**(n+1)
        k)`` work and ``O(d**n k)`` memory, against ``d**(2n)`` for ``σ``.
        Each contraction is a sum of elementwise products, earlier copies
        times the next copy as in :func:`~dsskit.linalg.kron_all`, and the
        result agrees with the dense ``b† σ b`` to roundoff.
        """
        rho = self.single.mat
        if self.n == 1:
            m = dagger(b)
            return m @ rho @ dagger(m)
        d, k, order = len(rho), b.shape[1], self.order
        to_copy_major = sorted(range(len(order)), key=order.__getitem__) + [len(order)]
        b = b.reshape([self.axes[o] for o in order] + [k]).transpose(to_copy_major).reshape(-1, k)
        x = b.reshape(d, -1)
        for _ in range(self.n):
            # Contract the leading copy axis, then rotate it to the back so the
            # next copy leads and every product runs over a long inner axis.
            acc = x[:1] * rho[:, :1]
            for j in range(1, d):
                acc += x[j : j + 1] * rho[:, j : j + 1]
            x = acc.T.reshape(d, -1)
        # The rotations have brought the column axis to the front.
        return dagger(b) @ x.reshape(k, -1).T

    def vectors(self, vecs: np.ndarray) -> np.ndarray:
        """The ``n``-fold Kronecker products of the columns of ``vecs`` (``d x
        r``, vectors of the single copy's space), regrouped party-major as the
        power is: column ``(j_1, ..., j_n)``, lexicographic, is ``vecs[:, j_1]
        (x) ... (x) vecs[:, j_n]``."""
        big = kron_all([vecs] * self.n)
        return big.reshape(self.axes + (-1,)).transpose(self.order + (len(self.axes),)).reshape(big.shape)

    def top_eigenstate(self) -> PureState:
        """The power's top eigenvector: the :meth:`vectors` of the single
        copy's top eigenvector, at eigenvalue ``l1**n``.  That eigenvalue is
        simple, and its eigenvector unique up to phase, when the single
        copy's top eigenvalue ``l1`` exceeds 1/2 (every other eigenvalue of
        the power is at most ``l1**(n-1) * (1 - l1)``); below that this
        raises."""
        w, v = self.single.eigh()
        if w[0] <= 0.5:
            raise InvariantViolation(
                "degenerate",
                f"top eigenvalue {w[0]:.6g} <= 1/2 leaves the power's top eigenvector ambiguous",
            )
        return PureState(self.shape, self.vectors(v[:, :1])[:, 0])


def tensor_power(rho: DensityMatrix, n: int, tol: Tolerance | None = None) -> DensityMatrix:
    """``n`` copies of ``rho``, regrouped so each party holds all its copies.

    The flat kron of copies orders subsystems copy-major; here rows and
    columns are explicitly permuted to party-major order, so party ``A``
    holds its copy-1 subsystems followed by copy-2 and so on, contiguously.
    Local subspaces of a party's enlarged space are then contiguous blocks.

    The result is checked to ``tol`` (by default ``DEFAULT_TOLERANCE``, as
    for the public constructor) by :meth:`_Power.checked` on the single
    copy, so no dense pass and no eigendecomposition of side ``d**n`` runs.
    The matrix is the one the public constructor would store, with no link
    back to ``rho``.  This is the one place the library forms a power's
    matrix.  Its functions take ``(rho, copies=n)`` instead: ``project``
    reads the power through :class:`_Power`, and the searches build it only
    once their candidate cap holds.
    """
    n = as_int(n, "copies")
    if n == 1:
        return rho
    power = _Power(rho, n).checked(DEFAULT_TOLERANCE if tol is None else tol)
    axes, order, total = power.axes, power.order, power.shape.total_dim
    big = kron_all([rho.mat] * n)
    mat = big.reshape(axes * 2).transpose(order + tuple(len(axes) + o for o in order)).reshape(total, total)
    return DensityMatrix._derived(power.shape, mat)


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
