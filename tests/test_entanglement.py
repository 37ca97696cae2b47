import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsskit import (
    DensityMatrix,
    EntanglementReport,
    InvariantViolation,
    ProductOperator,
    PureState,
    SystemShape,
    bell_state,
    binary_entropy,
    concurrence,
    dimension_signature,
    entanglement_of_formation,
    eof_from_concurrence,
    filter_comparison,
    filter_comparison_curve,
    filter_example,
    ghz_state,
    schmidt,
    signature_preservation_report,
    werner,
)
from dsskit.entanglement import _cut_ranks
from dsskit.linalg import Tolerance, numerical_rank
from dsskit.states import fidelity_with_pure, product_basis_vector, w_state, w_state_variant

from helpers import random_invertible_contraction, random_pure_state, random_unitary


def xstate_concurrence_oracle(rho: np.ndarray) -> float:
    """Closed form for states with support on the 00/11 and 01/10 blocks only."""
    c1 = abs(rho[0, 3]) - np.sqrt(abs(rho[1, 1] * rho[2, 2]))
    c2 = abs(rho[1, 2]) - np.sqrt(abs(rho[0, 0] * rho[3, 3]))
    return max(0.0, 2 * c1, 2 * c2)


def test_dimension_signature_examples():
    assert dimension_signature(ghz_state()) == (2, 2, 2)
    shape = SystemShape.qubits("ABC")
    product = PureState(shape, product_basis_vector(shape, (0, 1, 1)))
    assert dimension_signature(product) == (1, 1, 1)


def test_dimension_signature_on_regrouped_locals():
    # (|01,01,01> + |10,10,10>)/sqrt(2) on three 4-dimensional parties
    shape = SystemShape.of(("A", (2, 2)), ("B", (2, 2)), ("C", (2, 2)))
    v = (
        product_basis_vector(shape, (0b01, 0b01, 0b01))
        + product_basis_vector(shape, (0b10, 0b10, 0b10))
    ) / np.sqrt(2)
    psi = PureState(shape, v)
    assert dimension_signature(psi) == (2, 2, 2)


def reduced_state_signature(psi, tol):
    """The signature from each party's reduced density matrix."""
    return tuple(numerical_rank(psi.reduced([p.label]).mat, tol) for p in psi.shape.parties)


def test_cut_ranks_match_reduced_state_ranks():
    rng = np.random.default_rng(113)
    tol = Tolerance()
    states = [ghz_state(), w_state(), w_state_variant(), bell_state("psi-")]
    for shape in (SystemShape.qubits("ABC"), SystemShape.of(("A", 3), ("B", 2)),
                  SystemShape.of(("A", (2, 2)), ("B", 3))):
        states.extend(random_pure_state(rng, shape) for _ in range(5))
        states.append(PureState(shape, product_basis_vector(shape, (1,) * len(shape.parties))))
    for psi in states:
        assert dimension_signature(psi, tol) == reduced_state_signature(psi, tol)
    stacked = np.stack([psi.amplitudes for psi in states[-6:]])
    assert [tuple(row) for row in _cut_ranks([(stacked, states[-1].shape.dims)], tol.rank_rtol)] == [
        reduced_state_signature(psi, tol) for psi in states[-6:]
    ]


@pytest.mark.parametrize("eps,expected", [(2e-9, (2, 2)), (5e-10, (1, 1))])
def test_cut_ranks_near_cutoff(eps, expected):
    # Schmidt coefficients sqrt(1 - eps), sqrt(eps), hidden by local unitaries:
    # the reduced states' small eigenvalue sits within a factor 2 of rank_rtol.
    rng = np.random.default_rng(127)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    core = np.sqrt([1 - eps, 0, 0, eps]).astype(complex)
    psi = PureState(SystemShape.qubits("AB"), np.kron(u, v) @ core)
    assert dimension_signature(psi) == reduced_state_signature(psi, Tolerance()) == expected


def zero_padded(amplitudes: np.ndarray, dims, common) -> np.ndarray:
    """A stack of state vectors of per-party dims ``dims``, each party's
    axis zero-padded to ``common``, flattened."""
    n = len(amplitudes)
    out = np.zeros((n,) + tuple(common), dtype=complex)
    out[(slice(None),) + tuple(slice(d) for d in dims)] = amplitudes.reshape((n,) + tuple(dims))
    return out.reshape(n, -1)


@pytest.mark.parametrize("common", [(2, 3), (4, 4), (3, 7)])
def test_cut_ranks_of_zero_padded_vectors_near_cutoff(common):
    # The near-cutoff cases above, and closer ones, padded per party: the
    # padding adds only zero singular values and moves no rank.
    rng = np.random.default_rng(127)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    rtol = Tolerance().rank_rtol
    cores = [np.sqrt([1 - eps, 0, 0, eps]) for eps in (2e-9, 5e-10, 1.05 * rtol, 0.95 * rtol)]
    stack = np.stack([np.kron(u, v) @ core.astype(complex) for core in cores])
    want = _cut_ranks([(stack, (2, 2))], rtol)
    assert [tuple(row) for row in want] == [(2, 2), (1, 1), (2, 2), (1, 1)]
    assert np.array_equal(_cut_ranks([(zero_padded(stack, (2, 2), common), common)], rtol), want)


def test_cut_ranks_of_zero_padded_vectors_match_unpadded():
    rng = np.random.default_rng(131)
    rtol = Tolerance().rank_rtol
    cases = [
        ((2, 2, 2), (4, 4, 4), [ghz_state(), w_state(), w_state_variant()]),
        ((3, 2), (3, 5), []),
        ((2, 3, 1), (3, 3, 2), []),
        ((1, 4), (2, 4), []),
    ]
    for dims, common, states in cases:
        shape = SystemShape.of(*((chr(ord("A") + p), d) for p, d in enumerate(dims)))
        states = states + [random_pure_state(rng, shape) for _ in range(4)]
        states.append(PureState(shape, product_basis_vector(shape, (0,) * len(dims))))
        stack = np.stack([psi.amplitudes for psi in states])
        want = _cut_ranks([(stack, dims)], rtol)
        assert [tuple(row) for row in want] == [reduced_state_signature(psi, Tolerance()) for psi in states]
        assert np.array_equal(_cut_ranks([(zero_padded(stack, dims, common), common)], rtol), want)


def test_schmidt_examples():
    assert np.allclose(schmidt(bell_state("phi+")), [1 / np.sqrt(2), 1 / np.sqrt(2)])

    shape = SystemShape.qubits("AB")
    psi = PureState(
        shape,
        np.sqrt(3) / 2 * product_basis_vector(shape, (0, 0)) + 0.5 * product_basis_vector(shape, (1, 1)),
    )
    assert np.allclose(schmidt(psi), [np.sqrt(3) / 2, 0.5])

    product = PureState(shape, product_basis_vector(shape, (0, 1)))
    assert np.allclose(schmidt(product), [1.0, 0.0])


def test_schmidt_needs_grouping_beyond_two_parties():
    with pytest.raises(InvariantViolation) as err:
        schmidt(ghz_state())
    assert err.value.invariant == "grouping"
    coeffs = schmidt(ghz_state(), grouping=(("A",), ("B", "C")))
    assert np.allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_schmidt_squares_sum_to_one():
    rng = np.random.default_rng(71)
    for _ in range(20):
        psi = random_pure_state(rng, SystemShape.of(("A", 2), ("B", 3)))
        coeffs = schmidt(psi)
        assert np.sum(coeffs**2) == pytest.approx(1.0)


def test_signature_preservation_random():
    rng = np.random.default_rng(73)
    shape = SystemShape.qubits("ABC")
    for _ in range(30):
        psi = random_pure_state(rng, shape)
        op = ProductOperator.from_parts(
            shape, {lbl: random_invertible_contraction(rng, 2) for lbl in "ABC"}
        )
        report = signature_preservation_report(psi, op)
        assert report.full_rank
        assert report.signature_before == report.signature_after
        assert report.consistent


def test_signature_preservation_collapse():
    op = ProductOperator.from_parts(
        SystemShape.qubits("ABC"), {"A": np.diag([1.0, 0.0]).astype(complex)}
    )
    report = signature_preservation_report(ghz_state(), op)
    assert not report.full_rank
    assert report.signature_after == (1, 1, 1)
    assert report.consistent


def test_signature_preservation_product_state():
    rng = np.random.default_rng(79)
    shape = SystemShape.qubits("AB")
    psi = PureState(shape, product_basis_vector(shape, (0, 1)))
    op = ProductOperator.from_parts(
        shape, {lbl: random_invertible_contraction(rng, 2) for lbl in "AB"}
    )
    report = signature_preservation_report(psi, op)
    assert report.signature_before == report.signature_after == (1, 1)


def test_concurrence_bell_state():
    assert concurrence(bell_state("phi+").to_density()) == pytest.approx(1.0)


def test_concurrence_werner_closed_form():
    for F in (0.1, 0.25, 0.5, 0.8, 1.0):
        assert concurrence(werner(F)) == pytest.approx(max(0.0, 2 * F - 1), abs=1e-9)
    assert concurrence(werner(0.8)) == pytest.approx(0.6, abs=1e-9)


def test_concurrence_filter_example_xstate_oracle():
    for lam in (0.2, 0.5, 0.9):
        sigma = filter_example(lam)
        assert concurrence(sigma) == pytest.approx(xstate_concurrence_oracle(sigma.mat), abs=1e-9)
        assert concurrence(sigma) == pytest.approx(lam * np.sqrt(3) / 2, abs=1e-9)


def test_concurrence_shape_check():
    with pytest.raises(InvariantViolation):
        concurrence(ghz_state().to_density())


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(83)
    shape = SystemShape.qubits("AB")
    for _ in range(200):
        F = rng.uniform(0.0, 1.0)
        rho = werner(F)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = DensityMatrix(shape, u @ rho.mat @ u.conj().T)
        assert abs(concurrence(rotated) - concurrence(rho)) <= 1e-9


def test_pure_concurrence_equals_twice_schmidt_product():
    rng = np.random.default_rng(89)
    for _ in range(50):
        psi = random_pure_state(rng, SystemShape.qubits("AB"))
        coeffs = schmidt(psi)
        assert concurrence(psi.to_density()) == pytest.approx(2 * coeffs[0] * coeffs[1], abs=1e-9)


def test_binary_entropy_and_eof_values():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == pytest.approx(1.0)
    # h(0.9) evaluated directly
    h = -0.9 * np.log2(0.9) - 0.1 * np.log2(0.1)
    assert eof_from_concurrence(0.6) == pytest.approx(h, abs=1e-12)
    assert eof_from_concurrence(0.6) == pytest.approx(0.468995593590, abs=1e-9)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)


def test_eof_monotone_in_concurrence():
    grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
    values = [eof_from_concurrence(c) for c in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_entanglement_report_invariant():
    report = entanglement_of_formation(werner(0.8))
    assert report.concurrence == pytest.approx(0.6, abs=1e-9)
    with pytest.raises(InvariantViolation):
        EntanglementReport(concurrence=0.6, eof=0.1)


def test_filter_comparison_at_09():
    report = filter_comparison(0.9)
    assert report.lambda_prime == pytest.approx(2.7 / 2.9, abs=1e-9)
    assert report.success_probability == pytest.approx(2.9 / 8, abs=1e-9)
    assert report.eof_after > report.eof_before
    assert report.improved


def test_filter_comparison_limit():
    report = filter_comparison(1.0)
    assert report.concurrence_before == pytest.approx(np.sqrt(3) / 2, abs=1e-9)
    assert report.concurrence_after == pytest.approx(1.0, abs=1e-9)


def test_filter_comparison_curve():
    rows = filter_comparison_curve([0.3, 0.6, 0.9])
    assert [row.lam for row in rows] == [0.3, 0.6, 0.9]
    for row in rows:
        predicted = 3 * row.lam / (row.lam + 2)
        assert row.lambda_prime == pytest.approx(predicted, abs=1e-9)


CURVE_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
LAMBDAS = st.floats(0.0, 1.0, exclude_min=True)


def comparison_record(row) -> tuple:
    """Every field of a comparison, the filtered matrix as bytes, and ``improved``."""
    fields = {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}
    fields["filtered_state"] = row.filtered_state.mat.tobytes()
    return tuple(fields.items()) + (("improved", row.improved),)


@CURVE_SETTINGS
@given(st.lists(LAMBDAS, max_size=12))
def test_curve_rows_equal_the_single_comparison(lams):
    rows = filter_comparison_curve(lams)
    assert [comparison_record(row) for row in rows] == [comparison_record(filter_comparison(lam)) for lam in lams]
    # Each row owns its matrix, not a view into the stack.
    assert all(row.filtered_state.mat.flags.owndata for row in rows)


def test_curve_on_a_fine_grid_matches_the_single_comparison():
    # On this grid a stacked <phi|σ|phi> taken as vector-stack-vector
    # products rounds 4 of the 103 lambda' values differently.
    lams = np.round(np.linspace(0.01, 1.0, 103), 6)
    phi = bell_state("phi+")
    rows = filter_comparison_curve(lams)
    assert [comparison_record(row) for row in rows] == [comparison_record(filter_comparison(lam)) for lam in lams]
    assert [row.lambda_prime for row in rows] == [fidelity_with_pure(row.filtered_state, phi) for row in rows]


def test_empty_curve():
    assert filter_comparison_curve([]) == []


@CURVE_SETTINGS
@given(st.lists(LAMBDAS, max_size=6), st.sampled_from([0.0, -0.25, 1.5, math.nan, math.inf]), st.data())
def test_a_bad_lambda_anywhere_fails_the_curve(lams, bad, data):
    lams.insert(data.draw(st.integers(0, len(lams))), bad)
    with pytest.raises(InvariantViolation, match=r"^lambda must lie in \(0, 1\], got ") as info:
        filter_comparison_curve(lams)
    assert info.value.invariant == "lambda"
    assert str(info.value) == f"lambda must lie in (0, 1], got {bad}"


@pytest.mark.parametrize("length", [1, 2, 11, 40])
def test_curve_runs_one_stacked_pass(monkeypatch, length):
    # One eigvalsh for the state checks, and one eigh and one SVD call for
    # each of the two concurrences, at any grid length.
    calls = {"svd": 0, "eigvalsh": 0, "eigh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rows = filter_comparison_curve(np.linspace(0.05, 1.0, length))
    assert len(rows) == length
    assert calls == {"svd": 2, "eigvalsh": 1, "eigh": 2}
