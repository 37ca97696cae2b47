import numpy as np
import pytest

from dsskit import (
    Conditional,
    DensityMatrix,
    Filter,
    InvariantViolation,
    LocalSubspace,
    LocalUnitary,
    MeasureAndDiscard,
    ProductOperator,
    Project,
    ProtocolStepError,
    SystemShape,
    fidelity_with_pure,
    ghz_distillation_steps,
    ghz_from_two_copies,
    ghz_state,
    project,
    run,
    tensor_power,
    three_qubit_example,
    werner,
    werner_concurrence_table,
    werner_two_copy,
)
from dsskit.protocols import GhzBranchReport
from dsskit.states import PureState, product_basis_vector

from helpers import allclose, random_contraction, random_density, random_unitary

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_run_empty_protocol():
    rho = werner(0.8)
    result = run([], rho)
    assert len(result.branches) == 1
    assert result.branches[0].probability == pytest.approx(1.0)
    assert allclose(result.branches[0].state, rho)
    assert result.dropped_weight == 0.0


def test_run_identity_projection():
    rho = werner(0.8)
    result = run([Project(LocalSubspace.full(rho.shape))], rho)
    assert len(result.branches) == 1
    assert result.branches[0].probability == pytest.approx(1.0)


def test_run_project_agrees_with_project_function():
    two = tensor_power(three_qubit_example(0.4), 2)
    sub = LocalSubspace.from_indices(two.shape, {lbl: (1, 2) for lbl in "ABC"})
    outcome = project(two, sub)
    result = run([Project(sub)], two)
    branch = result.branches[0]
    assert branch.probability == pytest.approx(outcome.weight, abs=1e-12)
    b = sub.compression()
    compressed = b.conj().T @ branch.state.mat @ b
    assert np.max(np.abs(compressed - outcome.state.mat)) <= 1e-12
    assert result.dropped_weight == pytest.approx(1.0 - outcome.weight, abs=1e-12)


def test_measure_and_discard_product_state():
    shape = SystemShape.of(("A", (2, 2)), ("B", 2))
    vec = product_basis_vector(shape, (0b01, 1))
    rho = DensityMatrix.mixture(shape, [(1.0, vec)])
    result = run([MeasureAndDiscard("A", 1)], rho)
    assert len(result.branches) == 1
    branch = result.branches[0]
    assert branch.outcomes == (1,)
    assert branch.probability == pytest.approx(1.0)
    assert branch.state.shape.dims == (2, 2)
    assert branch.state.shape.party("A").dims == (2,)
    expected = product_basis_vector(branch.state.shape, (0, 1))
    assert fidelity_with_pure(branch.state, PureState(branch.state.shape, expected)) == pytest.approx(1.0)
    assert branch.shape_history[0].dims == (4, 2)
    assert branch.shape_history[-1].dims == (2, 2)
    # The unchecked post-measurement shapes equal, and hash as, checked ones.
    for step, want in ((MeasureAndDiscard("A", 1), SystemShape.of(("A", 2), ("B", 2))),
                       (MeasureAndDiscard("B", 0), SystemShape.of(("A", (2, 2))))):
        got = run([step], rho).branches[0].state.shape
        assert got == want and hash(got) == hash(want)


def test_measure_splits_branches():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = DensityMatrix.mixture(SystemShape.of(("A", 2), ("B", 2)), [(1.0, np.kron(plus, plus))])
    result = run([MeasureAndDiscard("A", 0)], rho)
    assert sorted(b.outcomes for b in result.branches) == [(0,), (1,)]
    for b in result.branches:
        assert b.probability == pytest.approx(0.5)


def test_conditional_applies_on_predicate():
    shape = SystemShape.of(("A", 2), ("B", 2))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = DensityMatrix.mixture(shape, [(1.0, np.kron(plus, np.array([1, 0], dtype=complex)))])
    flip = LocalUnitary({"B": np.array([[0, 1], [1, 0]], dtype=complex)})
    result = run(
        [MeasureAndDiscard("A", 0), Conditional(lambda o: o[0] == 1, flip, "flip B when A read 1")],
        rho,
    )
    by_outcome = {b.outcomes: b for b in result.branches}
    assert by_outcome[(0,)].state.mat[0, 0] == pytest.approx(1.0)  # B still |0>
    assert by_outcome[(1,)].state.mat[1, 1] == pytest.approx(1.0)  # B flipped to |1>


def test_step_errors_carry_index():
    rho = werner(0.8)
    bad = LocalUnitary({"A": np.eye(3, dtype=complex)})
    with pytest.raises(ProtocolStepError) as err:
        run([Project(LocalSubspace.full(rho.shape)), bad], rho)
    assert err.value.step_index == 1


def test_all_branches_zero_is_an_error():
    shape = SystemShape.qubits("AB")
    rho = DensityMatrix.mixture(shape, [(1.0, product_basis_vector(shape, (0, 0)))])
    dead = LocalSubspace.from_indices(shape, {"A": (1,), "B": (1,)})
    with pytest.raises(ProtocolStepError):
        run([Project(dead)], rho)


def test_branch_probability_conservation_random_protocols():
    rng = np.random.default_rng(127)
    shape = SystemShape.of(("A", (2, 2)), ("B", (2, 2)))
    for trial in range(20):
        rho = tensor_power(random_density(rng, SystemShape.qubits("AB"), rank=2), 2)
        steps = []
        for _ in range(int(rng.integers(1, 5))):
            kind = rng.integers(4)
            if kind == 0:
                indices = {
                    lbl: tuple(sorted(rng.choice(4, size=int(rng.integers(1, 5)), replace=False).tolist()))
                    for lbl in "AB"
                }
                steps.append(Project(LocalSubspace.from_indices(shape, indices)))
            elif kind == 1:
                steps.append(
                    Filter(
                        ProductOperator.from_parts(
                            shape, {"A": random_contraction(rng, 4, rank=int(rng.integers(2, 5)))}
                        )
                    )
                )
            elif kind == 2:
                steps.append(LocalUnitary({"B": random_unitary(rng, 4)}))
            else:
                steps.append(MeasureAndDiscard("A", 0))
                break  # shape changed; stop adding shape-bound steps
        try:
            result = run(steps, rho)
        except ProtocolStepError:
            continue
        total = sum(b.probability for b in result.branches) + result.dropped_weight
        assert total == pytest.approx(1.0, abs=1e-9)


def test_ghz_distillation_p_half():
    report = ghz_from_two_copies(0.5)
    assert report.success_probability == pytest.approx(0.125, abs=1e-9)
    assert len(report.branches) == 8
    for branch in report.branches:
        assert branch.probability == pytest.approx(0.125 / 8, abs=1e-9)
        assert branch.fidelity >= 1 - 1e-9
        parity = sum(branch.outcomes) % 2
        if parity == 1:
            # (|000> - |111>)/sqrt(2) is orthogonal to the GHZ state
            assert branch.fidelity_uncorrected == pytest.approx(0.0, abs=1e-9)
        else:
            assert branch.fidelity_uncorrected >= 1 - 1e-9
    assert report.all_corrected


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_ghz_distillation_success_probability_oracle(p):
    # Independent oracle: diagonal sum of the copy-major kron over the
    # subspace indices (the projector is diagonal in the computational basis).
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    e011 = np.zeros(8, dtype=complex)
    e011[0b011] = 1.0
    sigma = p * np.outer(ghz, ghz.conj()) + (1 - p) * np.outer(e011, e011.conj())
    two = np.kron(sigma, sigma)
    weight = 0.0
    for i in range(64):
        bits = [(i >> k) & 1 for k in range(5, -1, -1)]  # A1 B1 C1 A2 B2 C2
        if bits[0] != bits[3] and bits[1] != bits[4] and bits[2] != bits[5]:
            weight += float(np.real(two[i, i]))
    assert weight == pytest.approx(p * p / 2, abs=1e-12)

    report = ghz_from_two_copies(p)
    assert report.success_probability == pytest.approx(weight, abs=1e-9)
    assert all(b.fidelity >= 1 - 1e-9 for b in report.branches)


def test_werner_two_copy_pure_limit():
    report = werner_two_copy(1.0)
    for sub in report.subspaces:
        assert sub.bell_diagonal
        assert sub.concurrence_after == pytest.approx(1.0, abs=1e-9)
    assert report.combined_concurrence == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("F", [0.6, 0.8, 0.9, 0.95])
def test_werner_two_copy_closed_form(F):
    q = (1 - F) / 3
    norm = F * F + 2 * F * q + 5 * q * q
    expected_c = max(0.0, 2 * (F * F + q * q) / norm - 1.0)
    report = werner_two_copy(F)
    assert report.concurrence_before == pytest.approx(max(0.0, 2 * F - 1), abs=1e-9)
    for sub in report.subspaces:
        assert sub.bell_diagonal
        assert sub.max_bell_offdiag <= 1e-9
        assert sub.weight == pytest.approx(norm / 2, abs=1e-12)
        assert sub.concurrence_after == pytest.approx(expected_c, abs=1e-9)
    assert report.combined_concurrence == pytest.approx(expected_c, abs=1e-9)


def test_werner_two_copy_low_f_has_no_gain():
    report = werner_two_copy(0.3)
    assert report.concurrence_before == 0.0
    for sub in report.subspaces:
        assert sub.concurrence_after == pytest.approx(0.0, abs=1e-9)


def test_werner_concurrence_table_shape():
    table = werner_concurrence_table([0.6, 0.8])
    lines = table.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].split() == ["F", "C(single)", "C(01/10)", "C(00/11)", "C(combined)"]


def test_parameter_validation():
    with pytest.raises(InvariantViolation):
        ghz_from_two_copies(0.0)
    with pytest.raises(InvariantViolation):
        werner_two_copy(1.5)


def test_filter_and_project_steps_match_explicit_post_selection():
    rng = np.random.default_rng(227)
    shape = SystemShape.of(("A", 2), ("B", 3))
    for _ in range(10):
        rho = random_density(rng, shape, rank=int(rng.integers(1, 7)))
        op = ProductOperator.from_parts(shape, {"B": random_contraction(rng, 3, rank=2)})
        sub = LocalSubspace((("A", random_unitary(rng, 2)[:, :1]), ("B", random_unitary(rng, 3)[:, :2])))
        b = np.kron(sub.parties[0][1], sub.parties[1][1])
        for step, m in ((Filter(op), op.matrix(shape)), (Project(sub), b @ b.conj().T)):
            raw = m @ rho.mat @ m.conj().T
            weight = float(np.real(np.trace(raw)))
            result = run([step], rho)
            (branch,) = result.branches
            assert branch.probability == pytest.approx(weight, abs=1e-12)
            assert np.max(np.abs(branch.state.mat - raw / weight)) <= 1e-12
            assert result.dropped_weight == pytest.approx(1.0 - weight, abs=1e-12)


def test_zero_weight_outcomes_land_in_dropped_ledger():
    # A reads 0 with probability q; B is |0> on that branch and |1> on the other.
    q = 0.3
    shape = SystemShape.qubits("AB")
    rho = DensityMatrix.mixture(
        shape,
        [(q, product_basis_vector(shape, (0, 0))), (1.0 - q, product_basis_vector(shape, (1, 1)))],
    )
    measured = [MeasureAndDiscard("A", 0)]
    onto_b1 = LocalSubspace.from_indices(SystemShape.qubits("B"), {"B": (1,)})
    filter_b1 = ProductOperator.from_parts(SystemShape.qubits("B"), {"B": np.diag([0.0, 1.0])})
    for step in (Project(onto_b1), Filter(filter_b1)):
        result = run(measured + [Conditional(lambda o: o == (0,), step)], rho)
        assert [b.outcomes for b in result.branches] == [(1,)]
        assert result.dropped_weight == pytest.approx(q, abs=1e-12)
    # An impossible measurement outcome adds nothing to the ledger.
    pure = DensityMatrix.mixture(shape, [(1.0, product_basis_vector(shape, (0, 1)))])
    result = run(measured, pure)
    assert [b.outcomes for b in result.branches] == [(0,)]
    assert result.dropped_weight == 0.0


def test_orthonormality_checks_name_unitary():
    rho = werner(0.8)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    for step in (LocalUnitary({"A": skew}), MeasureAndDiscard("A", 0, skew)):
        with pytest.raises(ProtocolStepError) as err:
            run([step], rho)
        assert isinstance(err.value.__cause__, InvariantViolation)
        assert err.value.__cause__.invariant == "unitary"


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_ghz_from_two_copies_equals_corrected_and_uncorrected_runs(p):
    two = tensor_power(three_qubit_example(p), 2)
    steps = ghz_distillation_steps(two.shape)
    corrected, plain = run(steps, two), run(steps[:-1], two)
    raw = {b.outcomes: b.state for b in plain.branches}
    ghz = ghz_state()
    expected = tuple(
        GhzBranchReport(
            b.outcomes,
            b.probability,
            fidelity_with_pure(b.state, ghz),
            fidelity_with_pure(raw[b.outcomes], ghz),
        )
        for b in sorted(corrected.branches, key=lambda b: b.outcomes)
    )
    report = ghz_from_two_copies(p)
    assert report.branches == expected
    assert report.success_probability == corrected.success_probability
