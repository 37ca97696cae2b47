import numpy as np
import pytest

from dsskit import (
    DimensionCapError,
    InvariantViolation,
    Tolerance,
    eig_hermitian,
    kron,
    kron_all,
    numerical_rank,
    partial_trace,
    svd,
)
from dsskit.linalg import as_matrix

from helpers import random_unitary

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def kron_oracle(a, b):
    """Index-formula Kronecker product: out[(ia, ib), (ja, jb)] = a[ia, ja] b[ib, jb]."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for ia in range(ra):
        for ja in range(ca):
            for ib in range(rb):
                for jb in range(cb):
                    out[ia * rb + ib, ja * cb + jb] = a[ia, ja] * b[ib, jb]
    return out


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_index_convention():
    got = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_against_index_formula():
    proj0 = np.array([[1, 0], [0, 0]], dtype=complex)
    got = kron(proj0, X)
    assert np.allclose(got, kron_oracle(proj0, X))
    assert np.allclose(got[:2, :2], X)
    assert np.allclose(got[2:, 2:], 0.0)


def test_kron_associativity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-12


def test_kron_cap():
    big = np.eye(3000, dtype=complex)
    with pytest.raises(DimensionCapError):
        kron(big, I2)


def test_partial_trace_product_state():
    rho = np.outer([1, 0, 0, 0], [1, 0, 0, 0]).astype(complex)
    got = partial_trace(rho, (2, 2), [0])
    assert np.allclose(got, np.diag([1.0, 0.0]))


def test_partial_trace_bell_state():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    # Direct summation oracle over the 4x4 matrix.
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[i, j] = sum(rho[2 * i + k, 2 * j + k] for k in range(2))
    got = partial_trace(rho, (2, 2), [0])
    assert np.allclose(got, expected)
    assert np.allclose(got, np.eye(2) / 2)


def test_partial_trace_keeps_second_factor():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    got = partial_trace(kron(rho_a, rho_b), (2, 3), [1])
    assert np.allclose(got, rho_b)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    for keep in ([0], [1], [2], [0, 2]):
        reduced = partial_trace(m, (2, 3, 2), keep)
        assert abs(np.trace(reduced) - np.trace(m)) <= 1e-12


def test_partial_trace_composes():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    two_steps = partial_trace(partial_trace(m, (2, 2, 2), [0, 1]), (2, 2), [0])
    one_step = partial_trace(m, (2, 2, 2), [0])
    assert np.allclose(two_steps, one_step)


def test_partial_trace_empty_keep():
    with pytest.raises(InvariantViolation):
        partial_trace(np.eye(4, dtype=complex), (2, 2), [])


def test_partial_trace_size_mismatch():
    with pytest.raises(InvariantViolation):
        partial_trace(np.eye(4, dtype=complex), (2, 3), [0])


def test_partial_trace_caps_the_einsum_labels_at_26_subsystems():
    """Two einsum labels per subsystem, of numpy's 52: 27 subsystems are
    refused with the cap's error, 26 are traced."""
    with pytest.raises(DimensionCapError) as err:
        partial_trace(np.eye(1, dtype=complex), (1,) * 27, [0])
    assert str(err.value) == "too many subsystems (27) for partial_trace"
    m = np.array([[0.25 - 0.5j]])
    reduced = partial_trace(m, (1,) * 26, [0, 13, 25])
    assert reduced.shape == (1, 1)
    assert np.trace(reduced) == np.trace(m)


def test_eig_hermitian_identity():
    w, v = eig_hermitian(np.eye(3, dtype=complex))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(v @ v.conj().T, np.eye(3))


def test_eig_hermitian_diagonal():
    w, v = eig_hermitian(np.diag([0.7, 0.3]).astype(complex))
    assert np.allclose(w, [0.7, 0.3])
    assert np.allclose(np.abs(v), np.eye(2))


def test_eig_hermitian_bell_projector():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    w, v = eig_hermitian(rho)
    assert np.allclose(w, [1, 0, 0, 0], atol=1e-12)
    top = v[:, 0]
    phase = top[0] / abs(top[0])
    assert np.allclose(top / phase, PHI_PLUS)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(InvariantViolation) as err:
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert err.value.invariant == "hermitian"


def test_eig_reconstruction_residual():
    rng = np.random.default_rng(17)
    for side in (2, 8, 64):
        z = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        h = (z + z.conj().T) / 2
        w, v = eig_hermitian(h)
        residual = v @ np.diag(w) @ v.conj().T - h
        assert np.linalg.norm(residual, 2) <= 1e-9


def test_svd_examples():
    _, s, _ = svd(np.diag([3.0, 2.0]).astype(complex))
    assert np.allclose(s, [3.0, 2.0])
    _, s, _ = svd(np.zeros((3, 3), dtype=complex))
    assert np.allclose(s, 0.0)


def test_svd_filter_operator():
    a = np.diag([0.5, np.sqrt(3) / 2]).astype(complex)
    _, s, _ = svd(a)
    assert np.allclose(s, [np.sqrt(3) / 2, 0.5])


def test_svd_reconstruction_residual():
    rng = np.random.default_rng(19)
    for side in (3, 17, 64):
        m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        u, s, v = svd(m)
        residual = u @ np.diag(s) @ v.conj().T - m
        assert np.linalg.norm(residual, 2) <= 1e-9


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(4, dtype=complex)) == 4
    assert numerical_rank(np.outer(PHI_PLUS, PHI_PLUS.conj())) == 1

    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    e011 = np.zeros(8, dtype=complex)
    e011[0b011] = 1.0
    mix = 0.5 * np.outer(ghz, ghz.conj()) + 0.5 * np.outer(e011, e011.conj())
    assert numerical_rank(mix) == 2


def test_numerical_rank_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rank = int(rng.integers(1, 6))
        vectors = random_unitary(rng, 6)[:, :rank]
        weights = rng.dirichlet(np.ones(rank))
        m = (vectors * weights) @ vectors.conj().T
        u = random_unitary(rng, 6)
        assert numerical_rank(u @ m @ u.conj().T) == rank


def test_numerical_rank_small_norm_floor():
    # max(1, s_max) makes the cutoff absolute for tiny matrices
    assert numerical_rank(np.eye(3, dtype=complex) * 1e-12) == 0


def test_tolerance_validation():
    with pytest.raises(InvariantViolation):
        Tolerance(rank_rtol=-1e-3)
    with pytest.raises(InvariantViolation):
        Tolerance(purity_atol=1.0)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(InvariantViolation) as err:
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    assert err.value.invariant == "finite"



def test_kron_all_chain():
    got = kron_all([I2, X, I2])
    assert got.shape == (8, 8)
    assert np.allclose(got, np.kron(np.kron(I2, X), I2))


def test_kron_all_checks_the_full_product_against_the_cap():
    with pytest.raises(DimensionCapError) as err:
        kron_all([I2, I2, np.eye(2048)])
    assert "(8192, 8192)" in str(err.value)


def test_kron_all_rejects_a_non_finite_third_factor():
    with pytest.raises(InvariantViolation) as err:
        kron_all([I2, X, np.array([[1.0, np.nan], [0.0, 1.0]])])
    assert err.value.invariant == "finite"
