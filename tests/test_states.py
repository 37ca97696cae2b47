import dataclasses

import numpy as np
import pytest

from dsskit import (
    DensityMatrix,
    DimensionCapError,
    InvariantViolation,
    LocalSubspace,
    PureState,
    SystemShape,
    bell_state,
    fidelity_with_pure,
    filter_example,
    find_dss,
    ghz_state,
    power_rank,
    rank_bound,
    tensor_power,
    three_qubit_example,
    w_state,
    w_state_variant,
    werner,
)
from dsskit.linalg import identity, numerical_rank, partial_trace
from dsskit import states
from dsskit.states import Party, basis_vector, bell_vectors, product_basis_vector

from helpers import maximally_mixed, random_density, trace


def test_shape_basics():
    shape = SystemShape.qubits("ABC")
    assert shape.labels == ("A", "B", "C")
    assert shape.dims == (2, 2, 2)
    assert shape.total_dim == 8
    assert shape.party("B").dim == 2


def test_cached_preset_vectors_and_shapes_cannot_be_written():
    """The presets' parameter-free parts are built once per process and
    shared: no caller can write to them and so change a later query."""
    before = [werner(0.9).mat.copy(), three_qubit_example(0.5).mat.copy(), filter_example(0.7).mat.copy()]
    vectors = [ghz_state().amplitudes, w_state().amplitudes, w_state_variant().amplitudes]
    vectors += list(bell_vectors().values()) + [bell_state(kind).amplitudes for kind in bell_vectors()]
    vectors += [states._PRODUCT_011.amplitudes, *states._FILTER_VECTORS]
    projectors = [state._projector for state in (*states._BELL_STATES.values(), states._GHZ, states._PRODUCT_011)]
    for v in vectors + projectors:
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0.5
    vecs = bell_vectors()
    vecs["phi+"] = vecs.pop("psi-")
    assert bell_vectors()["phi+"][0] != 0
    shape = SystemShape.qubits("AB")
    assert SystemShape.qubits("AB") is shape
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.parties = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.parties[0].dims = (3,)
    after = [werner(0.9).mat, three_qubit_example(0.5).mat, filter_example(0.7).mat]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
    abc = SystemShape.qubits("ABC")
    ghz = (product_basis_vector(abc, (0, 0, 0)) + product_basis_vector(abc, (1, 1, 1))) / np.sqrt(2)
    assert ghz_state().amplitudes.tobytes() == ghz.tobytes()


def test_presets_add_projectors_formed_once(monkeypatch):
    """werner and example3q add the stored projectors of their constant
    terms, with no outer product per call, and give the bytes of the same
    mixture of fresh vectors."""
    werner(0.9), three_qubit_example(0.5)
    outer, calls = np.outer, []
    monkeypatch.setattr(np, "outer", lambda *args: calls.append(args) or outer(*args))
    got = [werner(0.9).mat, three_qubit_example(0.5).mat]
    assert calls == []
    monkeypatch.undo()
    ab, abc, q, bell = SystemShape.qubits("AB"), SystemShape.qubits("ABC"), (1.0 - 0.9) / 3.0, bell_vectors()
    want = [
        DensityMatrix.mixture(ab, [(0.9, bell["phi+"]), (q, bell["phi-"]), (q, bell["psi+"]), (q, bell["psi-"])]),
        DensityMatrix.mixture(abc, [(0.5, ghz_state().amplitudes), (0.5, product_basis_vector(abc, (0, 1, 1)))]),
    ]
    assert [g.tobytes() for g in got] == [w.mat.tobytes() for w in want]


def test_shape_rejects_duplicate_labels():
    with pytest.raises(InvariantViolation) as err:
        SystemShape.of(("A", 2), ("A", 3))
    assert err.value.invariant == "labels"


def test_shape_cap():
    with pytest.raises(DimensionCapError):
        SystemShape.of(("A", 4096), ("B", 2))


def test_party_composite_dims():
    p = Party("A", (2, 3))
    assert p.dim == 6


def test_density_matrix_invariants():
    shape = SystemShape.qubits("A")
    with pytest.raises(InvariantViolation) as err:
        DensityMatrix(shape, np.diag([0.5, 0.4]).astype(complex))
    assert err.value.invariant == "trace"

    with pytest.raises(InvariantViolation) as err:
        DensityMatrix(shape, np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    assert err.value.invariant == "hermitian"

    with pytest.raises(InvariantViolation) as err:
        DensityMatrix(shape, np.diag([1.001, -1e-3]).astype(complex))
    assert err.value.invariant == "positive-semidefinite"

    with pytest.raises(InvariantViolation) as err:
        DensityMatrix(shape, np.eye(3, dtype=complex) / 3)
    assert err.value.invariant == "dimension"


def test_pure_state_norm():
    shape = SystemShape.qubits("A")
    with pytest.raises(InvariantViolation) as err:
        PureState(shape, np.array([1.0, 1.0]))
    assert err.value.invariant == "norm"


def test_pure_state_inside_the_norm_margin_converts_to_a_density_matrix():
    """The density matrix of an accepted pure state is derived, not checked
    again: its trace, the squared norm, may sit outside the trace margin."""
    psi = PureState(SystemShape.qubits("AB"), np.array([1.0 + 0.9e-9, 0.0, 0.0, 0.0]))
    rho = psi.to_density()
    assert trace(rho) == pytest.approx((1.0 + 0.9e-9) ** 2, abs=1e-15)
    assert abs(trace(rho) - 1.0) > 1e-9


def test_werner_extremes():
    pure = werner(1.0)
    assert fidelity_with_pure(pure, bell_state("phi+")) == pytest.approx(1.0)
    mixed = werner(0.25)
    assert np.allclose(mixed.mat, np.eye(4) / 4)


def test_werner_eigenvalues():
    # Bell-diagonal by construction: eigenvalues are the mixing weights.
    evals = np.linalg.eigvalsh(werner(0.8).mat)
    assert np.allclose(sorted(evals), sorted([0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3]))
    with pytest.raises(InvariantViolation):
        werner(1.2)


def test_three_qubit_example():
    sigma = three_qubit_example(0.5)
    assert numerical_rank(sigma.mat) == 2
    assert trace(sigma) == pytest.approx(1.0)
    pure = three_qubit_example(1.0)
    assert fidelity_with_pure(pure, ghz_state()) == pytest.approx(1.0)
    with pytest.raises(InvariantViolation):
        three_qubit_example(0.0)


def test_filter_example():
    sigma = filter_example(1.0)
    # Schmidt coefficients of the pure component
    amps = sigma.top_eigenstate().amplitudes.reshape(2, 2)
    coeffs = np.linalg.svd(amps, compute_uv=False)
    assert np.allclose(coeffs, [np.sqrt(3) / 2, 0.5])

    assert numerical_rank(filter_example(0.5).mat) == 2
    reduced = filter_example(1.0).reduced(["A"])
    assert np.allclose(reduced.mat, np.diag([0.75, 0.25]))
    with pytest.raises(InvariantViolation):
        filter_example(0.0)


def test_ghz_w_presets():
    ghz, w_var = ghz_state(), w_state_variant()
    assert abs(np.vdot(ghz.amplitudes, w_var.amplitudes)) <= 1e-12
    for psi in (ghz, w_var, w_state()):
        for label in "ABC":
            assert numerical_rank(psi.reduced([label]).mat) == 2
    # variant and standard W differ in the third component
    assert abs(np.vdot(w_state().amplitudes, w_state_variant().amplitudes)) < 1.0 - 1e-6


def test_tensor_power_single_copy_is_identity():
    rho = werner(0.7)
    assert tensor_power(rho, 1) is rho


def test_tensor_power_product_case():
    shape = SystemShape.qubits("AB")
    rho = DensityMatrix.mixture(shape, [(1.0, product_basis_vector(shape, (0, 1)))])
    two = tensor_power(rho, 2)
    assert two.shape.party("A").dims == (2, 2)
    assert two.shape.dims == (4, 4)
    expected_shape = two.shape
    expected = product_basis_vector(expected_shape, (0b00, 0b11))
    assert fidelity_with_pure(two, PureState(expected_shape, expected)) == pytest.approx(1.0)


def test_tensor_power_eigenvalue_multiset():
    rng = np.random.default_rng(5)
    rho = random_density(rng, SystemShape.qubits("AB"), rank=3)
    two = tensor_power(rho, 2)
    assert trace(two) == pytest.approx(1.0)
    single = np.linalg.eigvalsh(rho.mat)
    expected = np.sort(np.outer(single, single).ravel())
    assert np.allclose(np.linalg.eigvalsh(two.mat), expected, atol=1e-10)


def test_tensor_power_copy_one_recovers_original():
    rng = np.random.default_rng(6)
    rho = random_density(rng, SystemShape.of(("A", 2), ("B", 3)), rank=2)
    two = tensor_power(rho, 2)
    # factor dims in party-major order: (A copy1, A copy2, B copy1, B copy2)
    dims = (2, 2, 3, 3)
    copy_one = partial_trace(two.mat, dims, [0, 2])
    assert np.allclose(copy_one, rho.mat, atol=1e-12)


def test_tensor_power_cap():
    with pytest.raises(DimensionCapError):
        tensor_power(maximally_mixed(SystemShape.of(("A", 8), ("B", 8))), 3)
    with pytest.raises(InvariantViolation):
        tensor_power(werner(0.5), 0)


def test_reduced_unknown_party():
    with pytest.raises(InvariantViolation):
        werner(0.5).reduced(["Z"])


def test_fidelity_dimension_check():
    with pytest.raises(InvariantViolation):
        fidelity_with_pure(werner(0.5), ghz_state())


def test_density_matrix_is_readonly():
    rho = werner(0.5)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0


@pytest.mark.parametrize(
    "call,invariant",
    [
        (lambda: tensor_power(werner(0.9), 2.9), "copies"),
        (lambda: power_rank(werner(0.9), 2.0), "copies"),
        (lambda: rank_bound(SystemShape.qubits("AB"), 2, (2.9, 2)), "signature"),
        (lambda: rank_bound(SystemShape.qubits("AB"), 2.5, (2, 2)), "copies"),
        (lambda: LocalSubspace.from_indices(SystemShape.qubits("AB"), {"A": (0.7, 1)}), "indices"),
        (lambda: find_dss(werner(0.9), min_signature=(2.5, 2)), "min_signature"),
        (lambda: Party("A", (2.7,)), "dims"),
        (lambda: SystemShape.of(("A", 2.7)), "dims"),
        (lambda: partial_trace(np.eye(4), (2.0, 2), [0]), "dims"),
        (lambda: partial_trace(np.eye(4), (2, 2), [0.5]), "keep"),
        (lambda: product_basis_vector(SystemShape.qubits("AB"), (0.7, 1)), "index"),
        (lambda: basis_vector(2.5, 0), "dim"),
        (lambda: identity(2.0), "n"),
    ],
    ids=["tensor_power", "power_spectrum", "rank_bound-signature", "rank_bound-copies",
         "from_indices", "min_signature", "party", "shape-of", "partial_trace-dims",
         "partial_trace-keep", "product_basis_vector", "basis_vector-dim", "identity"],
)
def test_non_integer_counts_are_refused(call, invariant):
    with pytest.raises(InvariantViolation) as err:
        call()
    assert err.value.invariant == invariant
    assert "expected an integer" in str(err.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: basis_vector(3, -1),
        lambda: basis_vector(3, 3),
        lambda: product_basis_vector(SystemShape.qubits("AB"), (-1, 0)),
        lambda: product_basis_vector(SystemShape.qubits("AB"), (0, 2)),
        lambda: product_basis_vector(SystemShape.of(("A", 3), ("B", 2)), (3, 0)),
    ],
    ids=["basis_vector-negative", "basis_vector-past-end", "product-negative",
         "product-aliasing", "product-past-party"],
)
def test_out_of_range_indices_are_refused(call):
    with pytest.raises(InvariantViolation) as err:
        call()
    assert err.value.invariant == "index"
    assert "out of range" in str(err.value)


def test_product_basis_vector_sets_the_flat_index():
    shape = SystemShape.of(("A", 3), ("B", (2, 2)))
    for a in range(3):
        for b in range(4):
            expected = np.zeros(12, dtype=complex)
            expected[a * 4 + b] = 1.0
            assert np.array_equal(product_basis_vector(shape, (a, b)), expected)


def test_numpy_integer_counts_are_accepted():
    shape = SystemShape.of(("A", np.int64(2)), ("B", (np.int32(2),)))
    assert shape.dims == (2, 2)
    assert tensor_power(werner(0.9), np.int64(2)).shape.dims == (4, 4)
    assert rank_bound(shape, np.int64(2), (np.int64(2), 2)) == 13
