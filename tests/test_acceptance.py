"""End-to-end acceptance checks for the worked examples and property suites.

Each criterion prints one pass/fail line (to the real stdout, so the lines
survive pytest's capture) and asserts at its stated tolerance.
"""

import contextlib
import json
import os
import sys
import time

import numpy as np

from dsskit import (
    LocalFactor,
    LocalSubspace,
    ProductOperator,
    SystemShape,
    bell_vectors,
    check_rank_bound,
    decompose,
    filter_comparison,
    find_dss,
    ghz_from_two_copies,
    project,
    rank_preservation_report,
    signature_preservation_report,
    tensor_power,
    three_qubit_example,
    werner_concurrence_table,
    werner_two_copy,
)
from dsskit.cli import main
from dsskit.states import product_basis_vector

from helpers import (
    certificate_summary,
    planted_instance,
    random_contraction,
    random_density,
    random_invertible_contraction,
    random_pure_state,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({label}): FAIL", file=sys.__stdout__)
        raise
    print(f"\n[acceptance] criterion {number} ({label}): PASS", file=sys.__stdout__)


def test_criterion_1_filter_upgrade():
    with criterion(1, "filter upgrade raises entanglement of formation"):
        started = time.perf_counter()
        shape = SystemShape.qubits("AB")
        phi = bell_vectors()["phi+"]
        e01 = product_basis_vector(shape, (0, 1))
        for lam in (0.90, 0.925, 0.95, 0.975, 0.99):
            report = filter_comparison(lam)
            assert report.eof_after - report.eof_before > 1e-6
            lam_prime = 3 * lam / (lam + 2)
            expected = lam_prime * np.outer(phi, phi.conj()) + (1 - lam_prime) * np.outer(
                e01, e01.conj()
            )
            assert np.max(np.abs(report.filtered_state.mat - expected)) <= 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_2_two_copy_subspace_search(tmp_path, capsys):
    with criterion(2, "two-copy search finds the certified subspace"):
        started = time.perf_counter()
        code = main(["dss", "find", "--state", "example3q", "--p", "0.5"])
        assert code == 2

        json_path = tmp_path / "find.json"
        code = main(
            ["dss", "find", "--state", "example3q", "--p", "0.5", "--copies", "2",
             "--json", str(json_path)]
        )
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert doc["results"]["candidates"] == 3375
        target = {"A": [1, 2], "B": [1, 2], "C": [1, 2]}
        matches = [
            c for c in doc["results"]["certificates"]
            if c["subspace"]["per_party_indices"] == target
        ]
        assert len(matches) == 1
        assert abs(matches[0]["weight"] - 0.125) <= 1e-9

        two = tensor_power(three_qubit_example(0.5), 2)
        sub = LocalSubspace.from_indices(two.shape, {lbl: (1, 2) for lbl in "ABC"})
        outcome = project(two, sub)
        phi = np.zeros(8, dtype=complex)
        phi[0] = phi[7] = 1 / np.sqrt(2)
        fidelity = float(np.real(np.conj(phi) @ outcome.state.mat @ phi))
        assert fidelity >= 1 - 1e-9
        assert abs(outcome.weight - 0.125) <= 1e-9
        assert time.perf_counter() - started < 5.0
    capsys.readouterr()


def test_criterion_3_ghz_distillation():
    with criterion(3, "GHZ distillation from two copies"):
        for p in (0.1, 0.5, 0.9):
            # Brute-force 64x64 oracle: the subspace projector is diagonal in
            # the copy-major computational basis, so the success weight is a
            # diagonal sum over indices with differing copy bits per party.
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
            assert abs(weight - p * p / 2) <= 1e-12

            report = ghz_from_two_copies(p)
            assert abs(report.success_probability - p * p / 2) <= 1e-9
            assert len(report.branches) == 8
            for branch in report.branches:
                assert branch.fidelity >= 1 - 1e-9


def test_criterion_4_werner_purification():
    with criterion(4, "Werner two-copy Bell-diagonal projections"):
        for F in (0.6, 0.8, 0.95):
            report = werner_two_copy(F)
            assert abs(report.concurrence_before - max(0.0, 2 * F - 1)) <= 1e-9
            assert len(report.subspaces) == 2
            for sub in report.subspaces:
                assert sub.bell_diagonal
                assert sub.max_bell_offdiag <= 1e-9
        table = werner_concurrence_table([0.6, 0.8, 0.95])
        with open(os.path.join(GOLDEN_DIR, "werner_concurrence_table.txt"), "r", encoding="utf-8") as fh:
            archived = fh.read()
        assert table == archived


def test_criterion_5_rank_preservation_suite():
    with criterion(5, "rank preserved by full-rank product operators, 200 trials"):
        rng = np.random.default_rng(2024)
        shapes = [
            SystemShape.qubits("AB"),
            SystemShape.of(("A", 3), ("B", 3)),
            SystemShape.qubits("ABC"),
        ]
        failures = 0
        for trial in range(200):
            shape = shapes[trial % len(shapes)]
            rank = int(rng.integers(1, shape.total_dim + 1))
            rho = random_density(rng, shape, rank=rank)
            op = ProductOperator(
                tuple(
                    LocalFactor(p.label, random_invertible_contraction(rng, p.dim))
                    for p in shape.parties
                )
            )
            report = rank_preservation_report(rho, op)
            if not (report.full_rank and report.consistent and report.rank_after == rank):
                failures += 1
        assert failures == 0


def test_criterion_6_signature_preservation_suite():
    with criterion(6, "dimension signature preserved by full-rank operators, 200 trials"):
        rng = np.random.default_rng(4096)
        shapes = [
            SystemShape.qubits("AB"),
            SystemShape.of(("A", 3), ("B", 3)),
            SystemShape.qubits("ABC"),
        ]
        failures = 0
        for trial in range(200):
            shape = shapes[trial % len(shapes)]
            psi = random_pure_state(rng, shape)
            op = ProductOperator(
                tuple(
                    LocalFactor(p.label, random_invertible_contraction(rng, p.dim))
                    for p in shape.parties
                )
            )
            report = signature_preservation_report(psi, op)
            if not (report.full_rank and report.consistent):
                failures += 1
            if report.signature_before != report.signature_after:
                failures += 1
        assert failures == 0


def test_criterion_7_decomposition_round_trip():
    with criterion(7, "projector/filter/unitary round trip, 500 factors"):
        rng = np.random.default_rng(512)
        deficient = 0
        for trial in range(500):
            d = int(rng.integers(2, 7))
            if trial % 4 == 0:
                rank = int(rng.integers(1, d))
                deficient += 1
            else:
                rank = d
            f = random_contraction(rng, d, rank=rank)
            parts = decompose(f)
            assert np.max(np.abs(parts.reconstruct() - f)) <= 1e-9
            assert np.max(np.abs(parts.lpo @ parts.lpo - parts.lpo)) <= 1e-9
            assert np.max(np.abs(parts.luo.conj().T @ parts.luo - np.eye(d))) <= 1e-9
            assert parts.retained_dim == rank
        assert deficient >= 100


def test_criterion_8_rank_bound_and_search_completeness():
    with criterion(8, "rank bound holds; pruned and unpruned searches agree"):
        sigma = three_qubit_example(0.5)
        two = tensor_power(sigma, 2)
        certs = find_dss(two)
        assert certs
        for cert in certs:
            report = check_rank_bound(sigma, 2, cert)
            assert report.satisfied
            assert report.bound == 57
            assert report.rank == 4

        rng = np.random.default_rng(77)
        for _ in range(50):
            state, planted = planted_instance(rng)
            pruned = find_dss(state, prune=True)
            unpruned = find_dss(state, prune=False)
            assert [certificate_summary(c) for c in pruned] == [
                certificate_summary(c) for c in unpruned
            ]
            assert any(c.subspace.basis_indices == planted for c in pruned)
            for cert in pruned:
                assert check_rank_bound(state, 1, cert).satisfied
