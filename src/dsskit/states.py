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

from dataclasses import dataclass
from math import prod, sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionCapError, InvariantViolation
from .linalg import (
    MAX_SIDE,
    DEFAULT_TOLERANCE,
    ZERO_WEIGHT,
    as_int,
    as_matrix,
    as_vector,
    dagger,
    kron_all,
    partial_trace,
)

TRACE_ATOL = 1e-9
NORM_ATOL = 1e-9


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
    def of(cls, *specs) -> "SystemShape":
        """Build from ``(label, dim)`` or ``(label, dims-tuple)`` pairs."""
        return cls(tuple(_as_party(s) for s in specs))

    @classmethod
    def qubits(cls, labels: str | int) -> "SystemShape":
        """A register of single qubits, e.g. ``qubits("ABC")`` or ``qubits(3)``."""
        if isinstance(labels, int):
            labels = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:labels]
        return cls(tuple(Party(ch, (2,)) for ch in labels))

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


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m†)/2`` of a matrix, or of each in a stack: fresh, exactly
    Hermitian, rid of a product's roundoff."""
    h = m + np.conj(m.swapaxes(-1, -2))
    h /= 2.0
    return h


def _validated(shape: SystemShape, mat: np.ndarray) -> np.ndarray:
    """The read-only Hermitian part of ``mat`` once it passes the density
    matrix checks: side, hermiticity, unit trace, and positivity of the
    eigenvalues of the Hermitian part."""
    d = shape.total_dim
    if mat.shape != (d, d):
        raise InvariantViolation(
            "dimension",
            f"matrix side {mat.shape} does not match shape total dim {d}",
        )
    deviation = float(np.max(np.abs(mat - dagger(mat))))
    if deviation > DEFAULT_TOLERANCE.herm_atol:
        raise InvariantViolation(
            "hermitian", f"density matrix is not Hermitian (max deviation {deviation:.3e})"
        )
    mat = _hermitian_part(mat)
    _require_unit_trace(float(np.real(np.trace(mat))))
    _require_psd(np.linalg.eigvalsh(mat))
    mat.setflags(write=False)
    return mat


def _require_unit_trace(tr: float) -> None:
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvariantViolation("trace", f"trace must be 1, got {tr!r}")


def _require_psd(spectrum: np.ndarray) -> None:
    lowest = float(np.min(spectrum))
    if lowest < -DEFAULT_TOLERANCE.psd_atol:
        raise InvariantViolation(
            "positive-semidefinite",
            f"density matrix has a negative eigenvalue {lowest:.3e}",
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, positive-semidefinite, unit-trace matrix over a shape; built
    directly, it is checked (see the module docstring).  No provenance."""

    shape: SystemShape
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _validated(self.shape, as_matrix(self.mat)))

    @classmethod
    def _derived(cls, shape: SystemShape, mat: np.ndarray) -> "DensityMatrix":
        """The one store-only constructor: a state derived from a checked one,
        stored read-only unchecked.  ``mat`` must be exactly Hermitian, as
        :func:`_power_checks` assumes; see :func:`_hermitian_part`."""
        mat.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "shape", shape)
        object.__setattr__(state, "mat", mat)
        return state

    @classmethod
    def from_pure(cls, psi: "PureState") -> "DensityMatrix":
        # A fused complex multiply leaves v_i v_j* and v_j v_i* inexact conjugates.
        v = psi.amplitudes
        return cls._derived(psi.shape, _hermitian_part(np.outer(v, np.conj(v))))

    @classmethod
    def mixture(cls, shape: SystemShape, terms: Iterable[tuple[float, np.ndarray]]) -> "DensityMatrix":
        """Convex mixture of pure components given as (weight, vector) pairs."""
        d = shape.total_dim
        mat = np.zeros((d, d), dtype=np.complex128)
        for w, vec in terms:
            v = as_vector(vec)
            mat += float(w) * np.outer(v, np.conj(v))
        return cls(shape, mat)

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
    copies side by side, and the regrouped shape."""
    k = len(shape.parties)
    order = [c * k + p for p in range(k) for c in range(n)]
    parties = tuple(Party(p.label, p.dims * n) for p in shape.parties)
    return shape.dims * n, order, SystemShape(parties)


def _power_shape(rho: DensityMatrix, n: int) -> SystemShape:
    """The shape of ``tensor_power(rho, n)``, with its copies and cap errors; nothing built."""
    return _party_major(rho.shape, _checked_copies(rho, n))[2]


def _power_spectrum(rho: DensityMatrix, n: int) -> np.ndarray:
    """The eigenvalues of ``rho``'s ``n``-th tensor power, unsorted: the
    ``n``-fold products of the eigenvalues of ``rho`` (Horn & Johnson,
    *Topics in Matrix Analysis*, Thm 4.2.12).  Regrouping the copies is a
    permutation similarity, so it leaves them unchanged.  Raises where
    :func:`tensor_power` would: for ``n < 1`` and above ``MAX_SIDE``."""
    n = _checked_copies(rho, n)
    base = np.linalg.eigvalsh(rho.mat)
    spectrum = base
    for _ in range(n - 1):
        spectrum = np.multiply.outer(spectrum, base).reshape(-1)
    return spectrum


def _power_checks(rho: DensityMatrix, n: int) -> int:
    """``n`` as a copy count of ``rho`` once ``rho``'s ``n``-th tensor power
    passes the density matrix checks, all made on the single copy.

    ``n`` must be an integer ``>= 1`` whose power stays within
    ``MAX_SIDE``.  The power's trace, ``tr(rho)**n``, must be 1 to
    ``TRACE_ATOL``; a copy inside that margin can leave its power outside.
    Its eigenvalues, the products :func:`_power_spectrum` gives, must pass
    the positivity check against ``DEFAULT_TOLERANCE.psd_atol``.
    Hermiticity needs no check: ``rho.mat`` is exactly Hermitian, and so is
    every Kronecker product of it, entry by entry.  Nothing of side
    ``d**n`` is allocated.  :func:`tensor_power` runs these checks, and so
    does :func:`~dsskit.subspaces.project` before :func:`_power_sandwich`.
    """
    n = _checked_copies(rho, n)
    _require_unit_trace(float(np.real(np.trace(rho.mat))) ** n)
    _require_psd(_power_spectrum(rho, n))
    return n


def tensor_power(rho: DensityMatrix, n: int) -> DensityMatrix:
    """``n`` copies of ``rho``, regrouped so each party holds all its copies.

    The flat kron of copies orders subsystems copy-major; here rows and
    columns are explicitly permuted to party-major order, so party ``A``
    holds its copy-1 subsystems followed by copy-2 and so on, contiguously.
    Local subspaces of a party's enlarged space are then contiguous blocks.

    The result is checked by :func:`_power_checks` on the single copy, so
    no dense pass and no eigendecomposition of side ``d**n`` runs.  The
    matrix is the one the public constructor would store, with no link back
    to ``rho``.  The library's functions take ``(rho, copies=n)`` instead:
    ``project`` builds no power, and the searches build it only once their
    candidate cap holds.
    """
    n = as_int(n, "copies")
    if n == 1:
        return rho
    n = _power_checks(rho, n)
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
    the next copy as in :func:`~dsskit.linalg.kron_all`.  So when ``b``'s
    columns are computational basis vectors each entry is the very product
    ``σ`` holds, and the result is bit-equal to the dense ``b† σ b``.
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


def _power_top_eigenstate(rho: DensityMatrix, n: int) -> PureState:
    """The top eigenvector of ``tensor_power(rho, n)`` without forming the
    power: the party-major regrouping of the ``n``-fold kron of ``rho``'s
    top eigenvector, at eigenvalue ``l1**n``.  That eigenvalue is simple,
    and its eigenvector unique up to phase, when ``rho``'s top eigenvalue
    ``l1`` exceeds 1/2 (every other eigenvalue of the power is at most
    ``l1**(n-1) * (1 - l1)``); below that this raises."""
    n = _checked_copies(rho, n)
    w, v = rho.eigh()
    if w[0] <= 0.5:
        raise InvariantViolation(
            "degenerate",
            f"top eigenvalue {w[0]:.6g} <= 1/2 leaves the power's top eigenvector ambiguous",
        )
    axes, order, shape = _party_major(rho.shape, n)
    vec = kron_all([v[:, :1]] * n).reshape(axes).transpose(order).reshape(-1)
    return PureState(shape, vec)


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


def bell_vectors() -> dict[str, np.ndarray]:
    """The four Bell vectors on two qubits, keyed phi+/phi-/psi+/psi-."""
    s = 1.0 / sqrt(2.0)
    return {
        "phi+": np.array([s, 0, 0, s], dtype=np.complex128),
        "phi-": np.array([s, 0, 0, -s], dtype=np.complex128),
        "psi+": np.array([0, s, s, 0], dtype=np.complex128),
        "psi-": np.array([0, s, -s, 0], dtype=np.complex128),
    }


def bell_state(kind: str = "phi+") -> PureState:
    vecs = bell_vectors()
    if kind not in vecs:
        raise InvariantViolation("kind", f"unknown Bell state {kind!r}, expected one of {sorted(vecs)}")
    return PureState(SystemShape.qubits("AB"), vecs[kind])


def werner(F: float) -> DensityMatrix:
    """Werner state ``F [phi+] + (1-F)/3 ([phi-] + [psi+] + [psi-])``."""
    F = float(F)
    if not 0.0 <= F <= 1.0:
        raise InvariantViolation("F", f"F must lie in [0, 1], got {F}")
    vecs = bell_vectors()
    q = (1.0 - F) / 3.0
    return DensityMatrix.mixture(
        SystemShape.qubits("AB"),
        [(F, vecs["phi+"]), (q, vecs["phi-"]), (q, vecs["psi+"]), (q, vecs["psi-"])],
    )


def ghz_state() -> PureState:
    """``(|000> + |111>)/sqrt(2)`` on three qubits A, B, C."""
    shape = SystemShape.qubits("ABC")
    v = (product_basis_vector(shape, (0, 0, 0)) + product_basis_vector(shape, (1, 1, 1))) / sqrt(2.0)
    return PureState(shape, v)


def w_state() -> PureState:
    """The standard W state ``(|100> + |010> + |001>)/sqrt(3)``."""
    shape = SystemShape.qubits("ABC")
    v = (
        product_basis_vector(shape, (1, 0, 0))
        + product_basis_vector(shape, (0, 1, 0))
        + product_basis_vector(shape, (0, 0, 1))
    ) / sqrt(3.0)
    return PureState(shape, v)


def w_state_variant() -> PureState:
    """A W-type state with components |100>, |010>, |011>.

    Note the third component is |011>, not the standard |001>; this variant
    is kept alongside :func:`w_state` because both appear in circulation.
    Its single-party reduced ranks are (2, 2, 2), like the standard W.
    """
    shape = SystemShape.qubits("ABC")
    v = (
        product_basis_vector(shape, (1, 0, 0))
        + product_basis_vector(shape, (0, 1, 0))
        + product_basis_vector(shape, (0, 1, 1))
    ) / sqrt(3.0)
    return PureState(shape, v)


def three_qubit_example(p: float) -> DensityMatrix:
    """``p [GHZ] + (1-p) [|011>]`` on three qubits.

    The single-copy state admits no distillable subspace over computational
    subsets, while two copies do; it drives the GHZ distillation example.
    """
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise InvariantViolation("p", f"p must lie in (0, 1], got {p}")
    shape = SystemShape.qubits("ABC")
    ghz = ghz_state().amplitudes
    prod_state = product_basis_vector(shape, (0, 1, 1))
    return DensityMatrix.mixture(shape, [(p, ghz), (1.0 - p, prod_state)])


def filter_example(lam: float) -> DensityMatrix:
    """``lam [psi] + (1-lam) [|01>]`` with ``psi = (sqrt(3)/2)|00> + (1/2)|11>``.

    A rank-2 two-qubit mixture whose entanglement of formation a local
    filter can raise; see :func:`dsskit.entanglement.filter_comparison`.
    """
    lam = float(lam)
    if not 0.0 < lam <= 1.0:
        raise InvariantViolation("lambda", f"lambda must lie in (0, 1], got {lam}")
    shape = SystemShape.qubits("AB")
    psi = sqrt(3.0) / 2.0 * product_basis_vector(shape, (0, 0)) + 0.5 * product_basis_vector(shape, (1, 1))
    return DensityMatrix.mixture(shape, [(lam, psi), (1.0 - lam, product_basis_vector(shape, (0, 1)))])

