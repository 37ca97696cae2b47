import numpy as np
import pytest

from dsskit import (
    DensityMatrix,
    ImpossibleOutcomeError,
    InvariantViolation,
    LocalFactor,
    ProductOperator,
    SystemShape,
    apply,
    apply_to_pure,
    decompose,
    filter_example,
    numerical_rank,
    rank_preservation_report,
    three_qubit_example,
)
from dsskit.states import bell_vectors, product_basis_vector

from helpers import (
    allclose,
    random_contraction,
    random_density,
    random_invertible_contraction,
    random_pure_state,
    random_unitary,
    trace,
)

FILTER_A = np.diag([0.5, np.sqrt(3) / 2]).astype(complex)


def test_local_factor_norm_bound():
    with pytest.raises(InvariantViolation) as err:
        LocalFactor("A", 2.0 * np.eye(2, dtype=complex))
    assert err.value.invariant == "spectral-norm"


def test_local_factor_from_matrix_records_scale():
    f = LocalFactor.from_matrix("A", 2.0 * np.eye(2, dtype=complex))
    assert f.scale == pytest.approx(2.0)
    assert np.allclose(f.mat, np.eye(2))
    g = LocalFactor.from_matrix("A", FILTER_A)
    assert g.scale == 1.0


def test_product_operator_label_checks():
    shape = SystemShape.qubits("AB")
    op = ProductOperator.from_parts(shape, {"A": FILTER_A})
    assert op.labels == ("A", "B")
    with pytest.raises(InvariantViolation):
        ProductOperator.from_parts(shape, {"Z": FILTER_A})
    wrong_order = ProductOperator(
        (LocalFactor("B", np.eye(2, dtype=complex)), LocalFactor("A", np.eye(2, dtype=complex)))
    )
    with pytest.raises(InvariantViolation):
        wrong_order.matrix(shape)


def test_apply_identity():
    rho = filter_example(0.7)
    out, probability = apply(ProductOperator.from_parts(rho.shape, {}), rho)
    assert probability == pytest.approx(1.0)
    assert allclose(out, rho, atol=1e-12)


def test_apply_filter_example_closed_form():
    # The diagonal filter turns lam [psi] + (1-lam) [|01>] into
    # lam' [phi+] + (1-lam') [|01>] with lam' = 3 lam / (lam + 2) and
    # success probability (lam + 2) / 8.
    for lam in (0.3, 0.9):
        sigma = filter_example(lam)
        out, probability = apply(ProductOperator.from_parts(sigma.shape, {"A": FILTER_A}), sigma)
        lam_prime = 3 * lam / (lam + 2)
        phi = bell_vectors()["phi+"]
        e01 = product_basis_vector(sigma.shape, (0, 1))
        expected = lam_prime * np.outer(phi, phi.conj()) + (1 - lam_prime) * np.outer(e01, e01.conj())
        assert probability == pytest.approx((lam + 2) / 8, abs=1e-12)
        assert np.max(np.abs(out.mat - expected)) <= 1e-9


def test_apply_projector_on_three_qubit_example():
    # Brute-force 8x8 oracle with explicit matrices.
    p = 0.6
    sigma = three_qubit_example(p)
    proj1 = np.diag([0.0, 1.0]).astype(complex)

    m = np.kron(np.kron(proj1, np.eye(2)), np.eye(2))
    raw = m @ sigma.mat @ m.conj().T
    expected_prob = float(np.real(np.trace(raw)))
    assert expected_prob == pytest.approx(p / 2)

    out, probability = apply(ProductOperator.from_parts(sigma.shape, {"A": proj1}), sigma)
    assert probability == pytest.approx(expected_prob)
    assert np.max(np.abs(out.mat - raw / expected_prob)) <= 1e-12
    # |011> has A-qubit 0, so only |111> survives: a pure output
    e111 = product_basis_vector(sigma.shape, (1, 1, 1))
    assert out.mat[7, 7] == pytest.approx(1.0)
    assert np.max(np.abs(out.mat - np.outer(e111, e111.conj()))) <= 1e-12


def test_apply_projector_on_party_b_gives_mixture():
    # On party B both components survive: weights (p/2)/(1 - p/2) and
    # (1-p)/(1 - p/2) on [|111>] and [|011>].
    p = 0.6
    sigma = three_qubit_example(p)
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    out, probability = apply(ProductOperator.from_parts(sigma.shape, {"B": proj1}), sigma)
    assert probability == pytest.approx(1 - p / 2)
    assert out.mat[7, 7] == pytest.approx((p / 2) / (1 - p / 2))
    assert out.mat[3, 3] == pytest.approx((1 - p) / (1 - p / 2))


def test_apply_impossible_branch():
    shape = SystemShape.qubits("AB")
    rho = DensityMatrix.mixture(shape, [(1.0, product_basis_vector(shape, (0, 1)))])
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ImpossibleOutcomeError) as err:
        apply(ProductOperator.from_parts(shape, {"A": proj1}), rho)
    assert err.value.raw_trace <= 1e-12


def test_apply_conserves_positivity_random():
    rng = np.random.default_rng(31)
    shape = SystemShape.qubits("AB")
    for _ in range(25):
        rho = random_density(rng, shape, rank=int(rng.integers(1, 5)))
        op = ProductOperator(
            tuple(LocalFactor(lbl, random_contraction(rng, 2, rank=int(rng.integers(1, 3)))) for lbl in "AB")
        )
        try:
            out, probability = apply(op, rho)
        except ImpossibleOutcomeError:
            continue
        # DensityMatrix construction re-validates Hermiticity/PSD/trace
        assert 0.0 < probability <= 1.0 + 1e-9
        assert trace(out) == pytest.approx(1.0)


def test_decompose_unitary():
    rng = np.random.default_rng(41)
    u = random_unitary(rng, 3)
    parts = decompose(LocalFactor("A", u))
    assert parts.retained_dim == 3
    assert np.allclose(parts.lpo, np.eye(3), atol=1e-9)
    assert np.allclose(parts.lfo, np.eye(3), atol=1e-9)
    assert np.max(np.abs(parts.luo - u)) <= 1e-9


def test_decompose_filter_is_its_own_filter_part():
    parts = decompose(LocalFactor("A", FILTER_A))
    assert parts.retained_dim == 2
    assert np.allclose(parts.lpo, np.eye(2), atol=1e-9)
    assert np.allclose(parts.lfo, FILTER_A, atol=1e-9)
    assert np.allclose(parts.luo, np.eye(2), atol=1e-9)
    assert np.allclose(parts.weights, [np.sqrt(3) / 2, 0.5])


def test_decompose_rank_one():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    op = np.outer([1.0, 0.0], plus).astype(complex)  # |0><+|
    parts = decompose(LocalFactor("A", op))
    assert parts.retained_dim == 1
    proj_plus = np.outer(plus, plus)
    assert np.allclose(parts.lpo, proj_plus, atol=1e-9)
    assert np.allclose(parts.lfo, proj_plus, atol=1e-9)
    mapped = parts.luo @ plus
    assert np.allclose(np.abs(mapped), [1.0, 0.0], atol=1e-9)


def test_decompose_zero_operator():
    with pytest.raises(InvariantViolation) as err:
        decompose(np.zeros((2, 2), dtype=complex))
    assert err.value.invariant == "nonzero"


def test_decompose_round_trip_quick():
    rng = np.random.default_rng(43)
    for i in range(100):
        d = int(rng.integers(2, 6))
        rank = int(rng.integers(1, d + 1)) if i % 3 == 0 else d
        f = random_contraction(rng, d, rank=rank)
        parts = decompose(f)
        assert np.max(np.abs(parts.reconstruct() - f)) <= 1e-9
        assert np.max(np.abs(parts.lpo @ parts.lpo - parts.lpo)) <= 1e-9
        assert np.max(np.abs(parts.lpo - parts.lpo.conj().T)) <= 1e-9
        assert np.max(np.abs(parts.luo.conj().T @ parts.luo - np.eye(d))) <= 1e-9
        assert np.max(np.abs(parts.lfo @ parts.lpo - parts.lpo @ parts.lfo)) <= 1e-9
        assert np.min(np.linalg.eigvalsh((parts.lfo + parts.lfo.conj().T) / 2)) >= -1e-9
        assert numerical_rank(parts.lpo) == parts.retained_dim
        assert numerical_rank(parts.lfo) == parts.retained_dim


def test_pipeline_equivalence():
    # Applying the operator equals projecting first, then filter+rotate,
    # with the probabilities multiplying up to the original.
    rng = np.random.default_rng(47)
    shape = SystemShape.qubits("AB")
    for _ in range(20):
        rho = random_density(rng, shape, rank=int(rng.integers(1, 5)))
        mats = {lbl: random_contraction(rng, 2, rank=int(rng.integers(1, 3))) for lbl in "AB"}
        op = ProductOperator.from_parts(shape, mats)
        try:
            direct, p_direct = apply(op, rho)
        except ImpossibleOutcomeError:
            continue
        parts = {lbl: decompose(m) for lbl, m in mats.items()}
        proj_op = ProductOperator.from_parts(shape, {lbl: p.lpo for lbl, p in parts.items()})
        rest_op = ProductOperator.from_parts(shape, {lbl: p.luo @ p.lfo for lbl, p in parts.items()})
        projected, p1 = apply(proj_op, rho)
        staged, p2 = apply(rest_op, projected)
        assert p1 * p2 == pytest.approx(p_direct, abs=1e-12)
        assert allclose(staged, direct, atol=1e-9)


def test_rank_preservation_invertible():
    rng = np.random.default_rng(53)
    shape = SystemShape.qubits("AB")
    rho = random_density(rng, shape, rank=3)
    op = ProductOperator.from_parts(
        shape, {lbl: np.diag(rng.uniform(0.3, 1.0, size=2)).astype(complex) for lbl in "AB"}
    )
    report = rank_preservation_report(rho, op)
    assert report.full_rank
    assert report.rank_before == report.rank_after == 3
    assert report.consistent


def test_rank_preservation_vacuous_when_rank_deficient():
    rng = np.random.default_rng(59)
    shape = SystemShape.qubits("AB")
    rho = random_density(rng, shape, rank=2)
    op = ProductOperator.from_parts(shape, {"A": np.diag([1.0, 0.0]).astype(complex)})
    report = rank_preservation_report(rho, op)
    assert not report.full_rank
    assert report.consistent


def test_rank_preservation_pure_stays_pure():
    rng = np.random.default_rng(61)
    shape = SystemShape.qubits("AB")
    psi = random_pure_state(rng, shape)
    op = ProductOperator.from_parts(
        shape, {lbl: random_invertible_contraction(rng, 2) for lbl in "AB"}
    )
    report = rank_preservation_report(psi.to_density(), op)
    assert report.full_rank
    assert report.rank_before == report.rank_after == 1


def test_apply_to_pure_matches_density_route():
    rng = np.random.default_rng(67)
    shape = SystemShape.qubits("AB")
    psi = random_pure_state(rng, shape)
    op = ProductOperator.from_parts(shape, {"A": FILTER_A})
    pure_out, p_pure = apply_to_pure(op, psi)
    dens_out, p_dens = apply(op, psi.to_density())
    assert p_pure == pytest.approx(p_dens, abs=1e-12)
    assert allclose(dens_out, pure_out.to_density(), atol=1e-10)


def test_apply_matches_explicit_post_selection_random_complex():
    rng = np.random.default_rng(211)
    shape = SystemShape.of(("A", 2), ("B", 3))
    for _ in range(10):
        rho = random_density(rng, shape, rank=int(rng.integers(1, 7)))
        op = ProductOperator(
            (LocalFactor("A", random_contraction(rng, 2)), LocalFactor("B", random_contraction(rng, 3, rank=2)))
        )
        m = np.kron(op.factors[0].mat, op.factors[1].mat)
        raw = m @ rho.mat @ m.conj().T
        weight = float(np.real(np.trace(raw)))
        out, probability = apply(op, rho)
        assert probability == pytest.approx(weight, abs=1e-12)
        assert np.max(np.abs(out.mat - raw / weight)) <= 1e-12
