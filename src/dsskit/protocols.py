"""Scripted LOCC protocols with full branch tracking.

A protocol is an ordered list of steps: project onto a local product
subspace, apply per-party unitaries, filter with a product operator,
measure one subsystem of a party and discard it, or run a step conditioned
on earlier measurement outcomes.  :func:`run` expands measurement branches
depth-first; projections and filters post-select on success, and the weight
of the dropped failure branches is kept on the ledger so probability is
conserved end to end.

The turnkey entry points reproduce the two multi-copy worked examples:
distilling a GHZ state from two copies of a GHZ/product mixture, and the
two-copy Werner projections onto Bell-diagonal states of higher
concurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .entanglement import _concurrence_stack
from .errors import Error, InvariantViolation, ProtocolStepError
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    as_matrix,
    dagger,
    identity,
    kron_all,
    require_orthonormal,
)
from .localops import ProductOperator
from .states import (
    DensityMatrix,
    SystemShape,
    _hermitian_part,
    _normalized,
    _post_select,
    _power_shape,
    bell_vectors,
    fidelity_with_pure,
    ghz_state,
    tensor_power,
    three_qubit_example,
    werner,
)
from .subspaces import LocalSubspace, project

#: Fidelity deficit below which a corrected GHZ branch counts as GHZ: a fixed
#: self-check of the protocol's closed form (fidelity 1), not a caller's tolerance.
CORRECTED_FIDELITY_ATOL = 1e-9

#: Largest Bell-basis off-diagonal entry of a Bell-diagonal Werner outcome: a
#: fixed self-check of the two-copy closed form, not a caller's tolerance.
BELL_DIAGONAL_ATOL = 1e-9

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / sqrt(2.0)
_PHASE_FLIP = np.diag([1.0, -1.0]).astype(np.complex128)


@dataclass(frozen=True)
class Project:
    """Post-select on a local product subspace (state stays in the ambient space)."""

    subspace: LocalSubspace


@dataclass(frozen=True)
class LocalUnitary:
    """Apply a unitary on each named party; unnamed parties get identity."""

    gates: Mapping[str, np.ndarray]


@dataclass(frozen=True)
class Filter:
    """Post-select on a product-operator outcome."""

    operator: ProductOperator


@dataclass(frozen=True)
class MeasureAndDiscard:
    """Projectively measure one subsystem of a party and remove it.

    ``subsystem`` indexes into the party's subsystem factorization; ``basis``
    is a unitary whose columns are the outcome states (computational basis
    when omitted).  The branch splits per outcome and the measured subsystem
    is traced away from the conditioned state.
    """

    party: str
    subsystem: int
    basis: np.ndarray | None = None


@dataclass(frozen=True)
class Conditional:
    """Run ``step`` only on branches whose outcome record satisfies ``predicate``."""

    predicate: Callable[[tuple[int, ...]], bool]
    step: "ProtocolStep"
    description: str = ""


ProtocolStep = Union[Project, LocalUnitary, Filter, MeasureAndDiscard, Conditional]


@dataclass
class BranchTrace:
    """One surviving branch: its outcome record, joint probability, state,
    and the shapes the state passed through as subsystems were discarded."""

    outcomes: tuple[int, ...]
    probability: float
    state: DensityMatrix
    shape_history: tuple[SystemShape, ...]


@dataclass
class RunResult:
    branches: list[BranchTrace]
    dropped_weight: float

    @property
    def success_probability(self) -> float:
        return float(sum(b.probability for b in self.branches))


def _post_select_branch(m: np.ndarray, branch: BranchTrace) -> tuple[list[BranchTrace], float]:
    """Keep the success branch of ``m``; drop the rest, or all of a zero-weight branch."""
    weight, state = _post_select(branch.state, m, branch.state.shape)
    if state is None:
        return [], branch.probability
    kept = BranchTrace(branch.outcomes, branch.probability * weight, state, branch.shape_history)
    return [kept], branch.probability * (1.0 - weight)


def _unitary_branch(step: LocalUnitary, branch: BranchTrace) -> tuple[list[BranchTrace], float]:
    shape = branch.state.shape
    unknown = set(step.gates) - set(shape.labels)
    if unknown:
        raise InvariantViolation("labels", f"unknown parties {sorted(unknown)}")
    mats = []
    for p in shape.parties:
        if p.label in step.gates:
            g = as_matrix(step.gates[p.label])
            if g.shape != (p.dim, p.dim):
                raise InvariantViolation(
                    "dimension", f"gate for party {p.label!r} must be {p.dim}x{p.dim}"
                )
            require_orthonormal(g, "unitary", f"gate for party {p.label!r} is not unitary")
            mats.append(g)
        else:
            mats.append(identity(p.dim))
    u = kron_all(mats)
    state = DensityMatrix._derived(shape, _hermitian_part(u @ branch.state.mat @ dagger(u)))
    return [BranchTrace(branch.outcomes, branch.probability, state, branch.shape_history)], 0.0


def _measure_branch(step: MeasureAndDiscard, branch: BranchTrace) -> tuple[list[BranchTrace], float]:
    """Split ``branch`` per outcome of the measured subsystem.

    With the flat index read as ``(outer, k, inner)`` around the measured
    subsystem of dimension ``k``, the unnormalized state of outcome ``o`` is
    the block ``<b_o| rho |b_o>`` taken on both sides of that axis.  A
    ``basis`` rotates the axis once, ``rho[., a, ., ., c, .]`` to
    ``<b_a| rho |b_c>``; then each outcome's block is read off by slicing.
    """
    shape = branch.state.shape
    pi = shape.party_index(step.party)
    party = shape.parties[pi]
    if not 0 <= step.subsystem < len(party.dims):
        raise InvariantViolation(
            "subsystem",
            f"party {party.label!r} has subsystems {tuple(range(len(party.dims)))}, "
            f"got index {step.subsystem}",
        )
    k = party.dims[step.subsystem]
    outer = prod(shape.dims[:pi]) * prod(party.dims[: step.subsystem])
    inner = prod(party.dims[step.subsystem + 1 :]) * prod(shape.dims[pi + 1 :])
    blocks = branch.state.mat.reshape(outer, k, inner, outer, k, inner)
    if step.basis is not None:
        basis = as_matrix(step.basis)
        if basis.shape != (k, k):
            raise InvariantViolation("dimension", f"measurement basis must be {k}x{k}")
        require_orthonormal(basis, "unitary", "measurement basis columns must be orthonormal")
        blocks = np.einsum("ba,obipcq->oaipcq", np.conj(basis), blocks)
        blocks = np.einsum("oaipcq,cd->oaipdq", blocks, basis)

    remaining_dims = party.dims[: step.subsystem] + party.dims[step.subsystem + 1 :]
    new_parties = [(p.label, remaining_dims if i == pi else p.dims) for i, p in enumerate(shape.parties)]
    if not remaining_dims:
        del new_parties[pi]
        if not new_parties:
            raise InvariantViolation("parties", "cannot discard the last remaining subsystem")
    # Derived from the checked shape: its labels, and fewer of its dims.
    new_shape = SystemShape._derived(new_parties)

    branches: list[BranchTrace] = []
    lost = 0.0
    side = outer * inner
    for outcome in range(k):
        block = blocks[:, outcome, :, :, outcome, :].reshape(side, side)
        weight, state = _normalized(block, new_shape)
        if state is None:
            lost += branch.probability * max(weight, 0.0)
            continue
        branches.append(
            BranchTrace(
                branch.outcomes + (outcome,),
                branch.probability * weight,
                state,
                branch.shape_history + (new_shape,),
            )
        )
    return branches, lost


def _apply_step(step: ProtocolStep, branch: BranchTrace) -> tuple[list[BranchTrace], float]:
    if isinstance(step, Project):
        step.subspace._check_against(branch.state.shape)
        return _post_select_branch(step.subspace.projector(), branch)
    if isinstance(step, Filter):
        return _post_select_branch(step.operator.matrix(branch.state.shape), branch)
    if isinstance(step, LocalUnitary):
        return _unitary_branch(step, branch)
    if isinstance(step, MeasureAndDiscard):
        return _measure_branch(step, branch)
    if isinstance(step, Conditional):
        if step.predicate(branch.outcomes):
            return _apply_step(step.step, branch)
        return [branch], 0.0
    raise InvariantViolation("step", f"unknown protocol step {type(step).__name__}")


def run(steps: Sequence[ProtocolStep], rho: DensityMatrix) -> RunResult:
    """Run a protocol, expanding measurement branches depth-first.

    Projections and filters keep the success branch and add the failure
    weight to the dropped ledger; measurements split the branch per outcome.
    Branch probabilities plus the dropped weight always total 1.  Raises
    when a step is dimensionally inconsistent (naming the step index) or
    when no branch survives.
    """
    branches = [BranchTrace((), 1.0, rho, (rho.shape,))]
    dropped = 0.0
    for index, step in enumerate(steps):
        survivors: list[BranchTrace] = []
        for branch in branches:
            try:
                outs, lost = _apply_step(step, branch)
            except Error as exc:
                raise ProtocolStepError(index, str(exc)) from exc
            dropped += lost
            survivors.extend(outs)
        branches = survivors
        if not branches:
            raise ProtocolStepError(index, "every branch reached zero probability")
    return RunResult(branches=branches, dropped_weight=dropped)


# ---------------------------------------------------------------------------
# Turnkey worked examples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GhzBranchReport:
    outcomes: tuple[int, ...]
    probability: float
    fidelity: float
    fidelity_uncorrected: float


@dataclass(frozen=True)
class GhzDistillationReport:
    p: float
    success_probability: float
    branches: tuple[GhzBranchReport, ...]

    @property
    def all_corrected(self) -> bool:
        return all(b.fidelity >= 1.0 - CORRECTED_FIDELITY_ATOL for b in self.branches)


def _odd_parity(outcomes: tuple[int, ...]) -> bool:
    return sum(outcomes) % 2 == 1


def ghz_distillation_steps(two_copies_shape: SystemShape) -> list[ProtocolStep]:
    """The GHZ distillation pipeline on a two-copy three-qubit shape.

    Project each party onto span{|01>, |10>} of its two copies, rotate each
    party's second subsystem to the +/- basis, measure and discard it, and
    flip the phase of party A's remaining qubit on odd outcome parity.  The
    correction is the last step, so ``steps[:-1]`` is the uncorrected
    pipeline.  The parity convention and the choice of party A are fixed
    here; any consistent choice gives a GHZ state up to local unitaries.
    """
    labels = two_copies_shape.labels
    subspace = LocalSubspace.from_indices(
        two_copies_shape, {label: (1, 2) for label in labels}
    )
    rotate = LocalUnitary({label: kron_all((identity(2), _HADAMARD)) for label in labels})
    steps: list[ProtocolStep] = [Project(subspace), rotate]
    steps += [MeasureAndDiscard(label, 1) for label in labels]
    steps.append(
        Conditional(
            _odd_parity,
            LocalUnitary({labels[0]: _PHASE_FLIP}),
            description=f"phase flip on {labels[0]} when outcome parity is odd",
        )
    )
    return steps


def ghz_from_two_copies(p: float) -> GhzDistillationReport:
    """Distill a GHZ state from two copies of ``p [GHZ] + (1-p) [|011>]``.

    Returns the projection success probability (p^2 / 2) and, for each of
    the eight measurement branches, the GHZ fidelity of the remaining three
    qubits with and without the conditional phase-flip correction.  The
    pipeline runs once without its correction step, which is then applied
    to each branch.
    """
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise InvariantViolation("p", f"p must lie in (0, 1], got {p}")
    two = tensor_power(three_qubit_example(p), 2)
    *steps, correction = ghz_distillation_steps(two.shape)
    plain = run(steps, two)

    ghz = ghz_state()
    reports = []
    for raw in sorted(plain.branches, key=lambda b: b.outcomes):
        (fixed,), _ = _apply_step(correction, raw)
        reports.append(
            GhzBranchReport(
                outcomes=fixed.outcomes,
                probability=fixed.probability,
                fidelity=fidelity_with_pure(fixed.state, ghz),
                fidelity_uncorrected=fidelity_with_pure(raw.state, ghz),
            )
        )
    # The correction is a unitary, so it leaves every branch probability as is.
    return GhzDistillationReport(
        p=p,
        success_probability=plain.success_probability,
        branches=tuple(reports),
    )


@dataclass(frozen=True)
class WernerSubspaceReport:
    name: str
    indices: tuple[int, ...]
    weight: float
    bell_diagonal: bool
    max_bell_offdiag: float
    concurrence_after: float


@dataclass(frozen=True)
class WernerPurificationReport:
    F: float
    concurrence_before: float
    subspaces: tuple[WernerSubspaceReport, ...]
    combined_concurrence: float


def _bell_offdiagonal(state: DensityMatrix) -> float:
    basis = bell_vectors()
    t = np.column_stack([basis["phi+"], basis["phi-"], basis["psi+"], basis["psi-"]])
    in_bell = dagger(t) @ state.mat @ t
    return float(np.max(np.abs(in_bell - np.diag(np.diag(in_bell)))))


#: The two-copy subspaces used by the Werner example: per party, span of the
#: same-copy-aligned pairs |01>,|10> (indices 1, 2) and |00>,|11> (0, 3).
WERNER_SUBSPACE_INDICES = {"01/10": (1, 2), "00/11": (0, 3)}


def werner_two_copy(F: float, tol: Tolerance = DEFAULT_TOLERANCE) -> WernerPurificationReport:
    """Project two Werner copies onto the two Bell-diagonal subspaces.

    Each projection compresses to a two-qubit state that is diagonal in the
    Bell basis; for F above the separability threshold its concurrence
    exceeds the single-copy value ``max(0, 2F - 1)``.  The combined entry is
    the concurrence of the weight-averaged post-selection ensemble over the
    two subspaces.  Each projection is taken from ``werner(F)`` at two
    copies (:func:`~dsskit.subspaces.project`), so the 16x16 two-copy state
    is never built.  The four concurrences, of the single copy, the two
    outcomes and the ensemble, come from one stacked
    :func:`~dsskit.entanglement._concurrence_stack` call.
    """
    F = float(F)
    if not 0.0 <= F <= 1.0:
        raise InvariantViolation("F", f"F must lie in [0, 1], got {F}")
    single = werner(F)
    two_copy_shape = _power_shape(single, 2)
    outcomes = [
        project(single, LocalSubspace.from_indices(two_copy_shape, {"A": idx, "B": idx}), tol, copies=2)
        for idx in WERNER_SUBSPACE_INDICES.values()
    ]
    total_weight = 0.0
    combined = np.zeros((4, 4), dtype=np.complex128)
    for outcome in outcomes:
        combined += outcome.weight * outcome.state.mat
        total_weight += outcome.weight
    # The single copy, each outcome and the combined ensemble: one stacked call.
    stack = np.stack([single.mat] + [outcome.state.mat for outcome in outcomes] + [combined / total_weight])
    before, *after, combined_concurrence = _concurrence_stack(stack).tolist()
    reports = []
    for (name, idx), outcome, concurrence_after in zip(WERNER_SUBSPACE_INDICES.items(), outcomes, after):
        offdiag = _bell_offdiagonal(outcome.state)
        reports.append(
            WernerSubspaceReport(
                name=name,
                indices=idx,
                weight=outcome.weight,
                bell_diagonal=offdiag <= BELL_DIAGONAL_ATOL,
                max_bell_offdiag=offdiag,
                concurrence_after=concurrence_after,
            )
        )
    return WernerPurificationReport(
        F=F,
        concurrence_before=before,
        subspaces=tuple(reports),
        combined_concurrence=combined_concurrence,
    )


def werner_concurrence_table(
    F_values: Sequence[float], tol: Tolerance = DEFAULT_TOLERANCE
) -> str:
    """Fixed-format concurrence comparison table for a grid of F values."""
    headers = ["F", "C(single)", "C(01/10)", "C(00/11)", "C(combined)"]
    lines = ["  ".join(f"{h:>16}" for h in headers)]
    for F in F_values:
        report = werner_two_copy(F, tol)
        by_name = {s.name: s for s in report.subspaces}
        row = [
            report.F,
            report.concurrence_before,
            by_name["01/10"].concurrence_after,
            by_name["00/11"].concurrence_after,
            report.combined_concurrence,
        ]
        lines.append("  ".join(f"{value:>16.12g}" for value in row))
    return "\n".join(lines) + "\n"
