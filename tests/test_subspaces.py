import tracemalloc

import numpy as np
import pytest

from dsskit import (
    DimensionCapError,
    DssCertificate,
    InvariantViolation,
    LocalSubspace,
    ProjectionOutcome,
    Refusal,
    SearchSpaceTooLarge,
    SystemShape,
    bell_state,
    candidate_count,
    check_certificate,
    check_rank_bound,
    concurrence,
    find_dss,
    find_purifying_subspaces,
    project,
    rank_bound,
    search_dss,
    tensor_power,
    three_qubit_example,
    werner,
)
from dsskit import fileio, states, subspaces
from dsskit.cli import main
from dsskit.linalg import DEFAULT_TOLERANCE
from dsskit.states import DensityMatrix, PureState, product_basis_vector
from dsskit.subspaces import CANDIDATE_CAP, _SearchContext, _tables

from helpers import (
    certificate_summary,
    count_solver_calls,
    iter_candidates,
    maximally_mixed,
    planted_instance,
    random_density,
    random_unitary,
    spy_on_the_general_path,
)


# ---------------------------------------------------------------------------
# Brute-force oracles in the unregrouped (copy-major) convention
# ---------------------------------------------------------------------------


def three_qubit_two_copy_oracle(p: float):
    """Project sigma(x)sigma onto per-party span{|01>,|10>} with raw indices.

    Works directly on the 64x64 copy-major kron (qubit order A1 B1 C1 A2 B2
    C2): the subspace is spanned by computational products, so the weight is
    a diagonal sum and the compressed entries are plain matrix elements.
    """
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    e011 = np.zeros(8, dtype=complex)
    e011[0b011] = 1.0
    sigma = p * np.outer(ghz, ghz.conj()) + (1 - p) * np.outer(e011, e011.conj())
    two = np.kron(sigma, sigma)

    def flat(x, y, z):
        # choice bit 0 -> |01>, 1 -> |10> on each party
        a1, a2 = x, 1 - x
        b1, b2 = y, 1 - y
        c1, c2 = z, 1 - z
        return a1 * 32 + b1 * 16 + c1 * 8 + a2 * 4 + b2 * 2 + c2

    allowed = [flat(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    weight = float(np.real(sum(two[i, i] for i in allowed)))
    compressed = two[np.ix_(allowed, allowed)] / weight
    return weight, compressed


def werner_two_copy_oracle(F: float, pair: tuple[int, int]):
    """Project werner(x)werner onto a per-party two-index subspace (copy-major)."""
    rho = werner(F).mat
    two = np.kron(rho, rho)  # qubit order A1 B1 A2 B2

    def flat(a_idx, b_idx):
        a1, a2 = divmod(a_idx, 2)
        b1, b2 = divmod(b_idx, 2)
        return a1 * 8 + b1 * 4 + a2 * 2 + b2

    allowed = [flat(a, b) for a in pair for b in pair]
    weight = float(np.real(sum(two[i, i] for i in allowed)))
    compressed = two[np.ix_(allowed, allowed)] / weight
    return weight, compressed


# ---------------------------------------------------------------------------
# LocalSubspace and project
# ---------------------------------------------------------------------------


def test_local_subspace_validation():
    shape = SystemShape.qubits("AB")
    with pytest.raises(InvariantViolation) as err:
        LocalSubspace((("A", np.array([[1.0, 1.0], [0.0, 0.0]])), ("B", np.eye(2))))
    assert err.value.invariant == "orthonormal"
    with pytest.raises(InvariantViolation):
        LocalSubspace.from_indices(shape, {"A": []})
    with pytest.raises(InvariantViolation):
        LocalSubspace.from_indices(shape, {"A": [5]})
    full = LocalSubspace.full(shape)
    assert full.dims == (2, 2)


def test_project_identity_subspace():
    rho = werner(0.7)
    outcome = project(rho, LocalSubspace.full(rho.shape))
    assert outcome.weight == pytest.approx(1.0)
    assert outcome.classification == "mixed"
    assert np.allclose(outcome.state.mat, rho.mat)


def test_project_three_qubit_two_copy_certificate():
    p = 0.5
    two = tensor_power(three_qubit_example(p), 2)
    sub = LocalSubspace.from_indices(two.shape, {lbl: (1, 2) for lbl in "ABC"})
    outcome = project(two, sub)

    weight_oracle, compressed_oracle = three_qubit_two_copy_oracle(p)
    assert outcome.weight == pytest.approx(weight_oracle, abs=1e-12)
    assert outcome.weight == pytest.approx(p * p / 2, abs=1e-9)
    assert outcome.classification == "pure-entangled"
    assert outcome.signature == (2, 2, 2)
    assert np.max(np.abs(outcome.state.mat - compressed_oracle)) <= 1e-12

    phi = np.zeros(8, dtype=complex)
    phi[0] = phi[7] = 1 / np.sqrt(2)
    psi = PureState(outcome.state.shape, phi)
    overlap = float(np.real(np.conj(phi) @ outcome.state.mat @ phi))
    assert overlap >= 1 - 1e-9
    assert psi.shape.dims == (2, 2, 2)


def test_project_werner_two_copy_is_bell_diagonal_mixture():
    F = 0.9
    two = tensor_power(werner(F), 2)
    sub = LocalSubspace.from_indices(two.shape, {"A": (1, 2), "B": (1, 2)})
    outcome = project(two, sub)
    assert outcome.classification == "mixed"

    weight_oracle, compressed_oracle = werner_two_copy_oracle(F, (1, 2))
    assert outcome.weight == pytest.approx(weight_oracle, abs=1e-12)
    assert np.max(np.abs(outcome.state.mat - compressed_oracle)) <= 1e-12

    # Closed-form Bell weights of the projected state:
    # (F^2 + q^2, 2Fq, 2q^2, 2q^2) / norm with q = (1-F)/3.
    q = (1 - F) / 3
    norm = F * F + 2 * F * q + 5 * q * q
    bell = bell_state("phi+").amplitudes
    top = float(np.real(np.conj(bell) @ outcome.state.mat @ bell))
    assert top == pytest.approx((F * F + q * q) / norm, abs=1e-12)


def test_projection_outcome_invariants():
    with pytest.raises(InvariantViolation):
        ProjectionOutcome(weight=0.5, state=None, classification="mixed")
    with pytest.raises(InvariantViolation):
        ProjectionOutcome(weight=0.0, state=None, classification="zero", signature=(1, 1))


def test_project_zero_weight():
    shape = SystemShape.qubits("AB")
    rho = DensityMatrix.mixture(shape, [(1.0, product_basis_vector(shape, (0, 0)))])
    sub = LocalSubspace.from_indices(shape, {"A": (1,), "B": (1,)})
    outcome = project(rho, sub)
    assert outcome.classification == "zero"
    assert outcome.weight == 0.0
    assert outcome.state is None


@pytest.mark.parametrize("copies", [True, 1.0, np.float64(1.0)], ids=["True", "1.0", "float64"])
def test_project_refuses_a_copy_count_that_tensor_power_refuses(copies):
    """A bool or a float is not a copy count, even when it equals 1."""
    rho = three_qubit_example(0.5)
    with pytest.raises(InvariantViolation) as dense:
        tensor_power(rho, copies)
    assert dense.value.invariant == "copies"
    rng = np.random.default_rng(5)
    rotated = LocalSubspace(tuple((label, random_unitary(rng, 2)) for label in "ABC"))
    for subspace in (LocalSubspace.full(rho.shape), rotated):
        for call in (project, check_certificate):
            with pytest.raises(InvariantViolation) as got:
                call(rho, subspace, copies=copies)
            assert got.value.invariant == "copies"
            assert str(got.value) == str(dense.value)


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_project_reads_computational_blocks_without_the_compression(monkeypatch, copies):
    """On computational basis vectors ``project`` reads the block from
    single-copy entries: no compression and no copy-by-copy contraction.
    Every other subspace, a look-alike with one entry -1.0 included, is
    compressed, and contracted from the single copy when ``copies > 1``."""
    rng = np.random.default_rng(copies)
    rho = three_qubit_example(0.5)
    shape = states._power_shape(rho, copies)
    calls = spy_on_the_general_path(monkeypatch)
    dim = 2**copies
    for indices in ({label: (1, 0) for label in "ABC"}, {"A": (0,), "B": tuple(range(dim))[::-1], "C": (dim - 1,)}):
        for subspace in (LocalSubspace.from_indices(shape, indices), LocalSubspace(tuple(
            (label, np.eye(dim)[:, idx]) for label, idx in indices.items()
        ))):
            project(rho, subspace, copies=copies)
            check_certificate(rho, subspace, copies=copies)
    assert calls == []
    general = ["compression"] + ["sandwich"] * (copies > 1)
    rotated = LocalSubspace(tuple((label, random_unitary(rng, dim)[:, :2]) for label in "ABC"))
    minus_one = np.eye(dim)[:, [0, 1]]
    minus_one[1, 1] = -1.0
    look_alike = LocalSubspace(tuple((label, minus_one) for label in "ABC"))
    for subspace in (rotated, look_alike):
        calls.clear()
        project(rho, subspace, copies=copies)
        assert calls == general


def test_project_weight_monotone_under_nesting():
    rng = np.random.default_rng(97)
    shape = SystemShape.of(("A", 3), ("B", 3))
    for _ in range(10):
        rho = random_density(rng, shape, rank=3)
        big = LocalSubspace.from_indices(shape, {"A": (0, 1, 2), "B": (0, 1)})
        small = LocalSubspace.from_indices(shape, {"A": (0, 1), "B": (0,)})
        assert project(rho, big).weight >= project(rho, small).weight - 1e-12


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def test_check_certificate_accepts_worked_example():
    two = tensor_power(three_qubit_example(0.5), 2)
    sub = LocalSubspace.from_indices(two.shape, {lbl: (1, 2) for lbl in "ABC"})
    verdict = check_certificate(two, sub)
    assert isinstance(verdict, DssCertificate)
    assert verdict.outcome.signature == (2, 2, 2)


def test_check_certificate_refuses_mixed():
    # On span{|00>,|11>} both the GHZ(x)GHZ and product(x)product parts survive.
    two = tensor_power(three_qubit_example(0.5), 2)
    sub = LocalSubspace.from_indices(two.shape, {lbl: (0, 3) for lbl in "ABC"})
    verdict = check_certificate(two, sub)
    assert isinstance(verdict, Refusal)
    assert verdict.reason == "mixed"


def test_check_certificate_refuses_maximally_mixed():
    rho = maximally_mixed(SystemShape.qubits("AB"))
    sub = LocalSubspace.from_indices(rho.shape, {"A": (0, 1), "B": (0, 1)})
    verdict = check_certificate(rho, sub)
    assert isinstance(verdict, Refusal)
    assert verdict.reason == "mixed"


def test_check_certificate_refuses_product_and_zero():
    sigma = three_qubit_example(0.5)
    product_sub = LocalSubspace.from_indices(sigma.shape, {"A": (1,), "B": (1,), "C": (1,)})
    verdict = check_certificate(sigma, product_sub)
    assert isinstance(verdict, Refusal)
    assert verdict.reason == "product"

    zero_sub = LocalSubspace.from_indices(sigma.shape, {"A": (1,), "B": (0,), "C": (0,)})
    verdict = check_certificate(sigma, zero_sub)
    assert isinstance(verdict, Refusal)
    assert verdict.reason == "zero-weight"


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def test_iter_candidates_canonical_order():
    shape = SystemShape.qubits("AB")
    got = list(iter_candidates(shape))
    assert candidate_count(shape) == 9
    assert got[:4] == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((0,), (0, 1)),
        ((1,), (0,)),
    ]
    assert got[-1] == ((0, 1), (0, 1))

    # The search context numbers candidates in the same order, and its
    # (2, 2) size group is the oracle's two-by-two candidates.
    rho = random_density(np.random.default_rng(5), SystemShape.of(("A", 2), ("B", 3)))
    ctx = _SearchContext(rho, 1, None, DEFAULT_TOLERANCE, CANDIDATE_CAP)
    oracle = list(iter_candidates(rho.shape))
    assert [sub.basis_indices for sub, _ in ctx.classify(range(ctx.count), subspaces._CLASSES)] == oracle
    pairs = ctx.group((2, 2))
    assert pairs.tolist() == [
        pos for pos, c in enumerate(oracle) if all(len(idx) == 2 for idx in c)
    ]


@pytest.mark.parametrize("require_entangled", [True, False])
def test_screen_runs_no_eigensolver_per_candidate(monkeypatch, require_entangled):
    # The screen reads the power in the search basis, the matrix the kernel
    # reads, and decomposes nothing.  Every screen decision is a
    # contraction, so a solver call per candidate or group shows here.
    ctx = _SearchContext(three_qubit_example(0.5), 2, None, DEFAULT_TOLERANCE, CANDIDATE_CAP)
    calls = {"svd": 0, "eigvalsh": 0, "eigh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    positions, _ = ctx.screen(require_entangled)
    assert calls == {"svd": 0, "eigvalsh": 0, "eigh": 0}
    assert len(positions) == (24 if require_entangled else 979)


def test_classify_runs_one_eigensolver_per_size_group(monkeypatch):
    # 3375 candidates in 64 size groups, read in a few slices of consecutive
    # positions: one eigh per core side per slice, never one per candidate
    # or per group, and one cut-rank SVD per slice.
    ctx = _SearchContext(three_qubit_example(0.5), 2, None, DEFAULT_TOLERANCE, CANDIDATE_CAP)
    calls = count_solver_calls(monkeypatch)
    outcomes = [outcome.classification for _, outcome in ctx.classify(range(ctx.count), subspaces._CLASSES)]
    assert len(outcomes) == 3375
    assert calls["eigvalsh"] == 0
    assert 0 < calls["eigh"] <= 64
    assert calls["svd"] <= calls["eigh"]


def test_search_runs_one_cut_rank_call_for_all_size_groups(monkeypatch):
    # 24 survivors of the screen in 16 size groups and one slice: one SVD
    # call gives every signature; the screen and power run none.
    calls = count_solver_calls(monkeypatch)
    certs = find_dss(three_qubit_example(0.5), copies=2)
    assert len(certs) == 24
    assert calls["svd"] == 1


def test_search_stacks_all_survivor_cores_in_one_eigensolver_call(monkeypatch):
    # The 24 survivors lie in one slice, in 16 size groups of sides 8 to 36,
    # but each is a zero-padded copy of a (2, 2, 2) core or that core itself:
    # one eigh of side 8 decides them all, and the screen runs none.
    calls = count_solver_calls(monkeypatch)
    certs = find_dss(three_qubit_example(0.5), copies=2)
    assert len(certs) == 24
    assert (calls["eigh"], calls["svd"]) == (1, 1)


def test_classify_stack_reads_each_top_at_its_own_sizes(monkeypatch):
    # Side-4 blocks at per-party sizes (2, 2), (1, 4) and (4, 1), as in a
    # search of per-party dims (4, 4), and a side-8 block at (2, 4) whose
    # rows 2, 3, 6 and 7 are zero.  The pure block has the same bytes at
    # every size: it is entangled at (2, 2) and a product at (1, 4) and
    # (4, 1), so each top must be read at its own block's sizes, whatever
    # the frame the one cut-rank call pads them to.
    psi = np.array([1.0, 1.0, 1.0, -1.0]) / 2
    pure = np.outer(psi, psi).astype(np.complex128)
    mixed = np.eye(4, dtype=np.complex128) / 4
    padded = np.zeros((8, 8), dtype=np.complex128)
    padded[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])] = pure
    fours = [(pure, (2, 2)), (pure, (1, 4)), (pure, (4, 1)), (mixed, (2, 2)), (pure, (2, 2))]
    stacks = [
        (np.stack([b for b, _ in fours]), np.array([s for _, s in fours])),
        (padded[np.newaxis], np.array([[2, 4]])),
    ]
    calls = count_solver_calls(monkeypatch)
    codes, ranks = subspaces._classify_stack(stacks, DEFAULT_TOLERANCE)
    assert (calls["eigh"], calls["svd"]) == (2, 1)
    alone = [
        subspaces._classify_stack([(block[np.newaxis], sizes[np.newaxis])], DEFAULT_TOLERANCE)
        for blocks, sizes_of in stacks for block, sizes in zip(blocks, sizes_of)
    ]
    assert codes.tolist() == [int(a[0][0]) for a in alone]
    assert ranks.tolist() == [a[1][0].tolist() for a in alone]
    assert [subspaces._CLASSES[c] for c in codes] == (
        ["pure-entangled", "pure-product", "pure-product", "mixed", "pure-entangled", "pure-entangled"]
    )
    assert ranks.tolist() == [[2, 2], [1, 1], [1, 1], [0, 0], [2, 2], [2, 2]]


def test_unpruned_search_decomposes_every_nonzero_block():
    # The flat oracle hands the kernel every block of nonzero weight, 2208 of
    # example3q(0.5)^2's 3375 candidates, each whole; the core pass finds
    # that 2107 of them have a strictly smaller core.
    stats = search_dss(three_qubit_example(0.5), copies=2, prune=False).stats
    assert (stats["smaller_cores"], stats["decomposed"]) == (2107, 2208)


def test_pruned_search_keeps_components_below_the_rank_cutoff(capsys, tmp_path):
    # (1 - eps)|00><00| + eps|phi><phi| on two qutrits, phi = (|11> + |22>)/sqrt(2):
    # eps lies between ZERO_WEIGHT and rank_rtol, so a screen of the state cut
    # at the rank cutoff sees no weight on {1, 2} x {1, 2} and its padded
    # supersets, where the kernel finds three pure entangled projections.
    eps, shape = 5e-10, SystemShape.of(("A", 3), ("B", 3))
    phi = (product_basis_vector(shape, (1, 1)) + product_basis_vector(shape, (2, 2))) / np.sqrt(2)
    rho = DensityMatrix.mixture(shape, [(1 - eps, product_basis_vector(shape, (0, 0))), (eps, phi)])
    for require_entangled in (True, False):
        pruned = search_dss(rho, require_entangled=require_entangled)
        assert pruned.records == search_dss(rho, require_entangled=require_entangled, prune=False).records
    assert [r.indices for r in search_dss(rho).records] == [((1, 2), (1, 2)), ((1, 2), (0, 1, 2)), ((0, 1, 2), (1, 2))]
    fileio.write_state(str(tmp_path / "state.json"), rho)
    assert main(["dss", "find", "--state", str(tmp_path / "state.json")]) == 0
    assert "certificates_found: 3" in capsys.readouterr().out


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("require_entangled", [True, False], ids=["entangled", "pure"])
def test_search_cuts_a_subspace_for_each_certificate_only(monkeypatch, prune, require_entangled):
    # Zero, mixed and unwanted pure outcomes get no subspace; every party's
    # columns of a subset are cut once and shared, read-only.
    made = []
    cut = LocalSubspace._from_checked.__func__
    monkeypatch.setattr(LocalSubspace, "_from_checked", classmethod(lambda cls, *a: made.append(a) or cut(cls, *a)))
    certs = find_dss(three_qubit_example(0.5), copies=2, prune=prune, require_entangled=require_entangled)
    assert len(made) == len(certs) == (24 if require_entangled else 979)
    columns = {}
    for cert in certs:
        for (label, vecs), idx in zip(cert.subspace.parties, cert.subspace.basis_indices):
            assert not vecs.flags.writeable
            assert columns.setdefault((label, idx), vecs) is vecs


def test_purifying_search_cuts_a_subspace_for_each_mixed_outcome_only(monkeypatch):
    ctx = _SearchContext(werner(0.9), 2, None, DEFAULT_TOLERANCE, CANDIDATE_CAP)
    mixed = [got for _, got in ctx.classify(ctx.group((2, 2)), subspaces._CLASSES) if got.classification == "mixed"]
    made = []
    cut = LocalSubspace._from_checked.__func__
    monkeypatch.setattr(LocalSubspace, "_from_checked", classmethod(lambda cls, *a: made.append(a) or cut(cls, *a)))
    find_purifying_subspaces(werner(0.9), copies=2)
    assert len(made) == len(mixed) > 0


@pytest.mark.parametrize("rho", [three_qubit_example(0.5), werner(0.9)], ids=["example3q", "werner"])
def test_classify_of_a_power_keeps_the_bytes_of_project(rho):
    # Every candidate of the power (3375 and 225) on computational bases: the
    # states come from their slice's stack of blocks of their side and are
    # project's to the last bit.  Every outcome owns its state rather than a
    # view of the stack, which would keep the whole slice alive.
    ctx = _SearchContext(rho, 2, None, DEFAULT_TOLERANCE, CANDIDATE_CAP)
    power = tensor_power(rho, 2)
    seen = set()
    for sub, got in ctx.classify(range(ctx.count), subspaces._CLASSES):
        want = project(power, sub)
        assert (got.classification, got.signature) == (want.classification, want.signature)
        assert np.float64(got.weight).tobytes() == np.float64(want.weight).tobytes()
        if want.state is None:
            assert got.state is None
            continue
        assert got.state.shape == want.state.shape
        assert got.state.mat.tobytes() == want.state.mat.tobytes()
        assert got.state.mat.base is None
        seen.add(got.classification)
    assert {"mixed", "pure-product"} <= seen


def test_unpruned_search_memory_stays_bounded():
    # The candidates are classified in slices of consecutive positions, and
    # only the kept certificates hold states; 979 certificates, most of them
    # pure-product paddings.
    tracemalloc.start()
    try:
        certs = find_dss(three_qubit_example(0.5), copies=2, prune=False, require_entangled=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(certs) == 979
    assert peak <= 7.5e6


def test_search_keeps_no_pair_table():
    # One party of dim 12: 4095 subsets.  The screen's pair indicators (4095 x
    # 144 floats, 4.7 MB) are built per search, not cached with the subset
    # tables, which keep only the subsets, their members and their sizes.
    tracemalloc.start()
    try:
        _tables.cache_clear()
        before = tracemalloc.get_traced_memory()[0]
        certs = find_dss(maximally_mixed(SystemShape.of(("A", 12))), require_entangled=False)
        assert len(certs) == 12
        del certs
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4095 * 144 * 8


@pytest.mark.parametrize(
    "rho,bases",
    [
        (three_qubit_example(0.5), None),
        (werner(0.9), {label: random_unitary(np.random.default_rng(29), 4) for label in "AB"}),
    ],
    ids=["example3q", "werner-rotated"],
)
def test_classify_outcomes_do_not_depend_on_the_slice_bound(monkeypatch, rho, bases):
    # A slice bound of 1 or 7 puts every candidate in a slice of its own, and
    # example3q's blocks of up to 64 x 64 exceed it; 300 puts a few blocks of
    # several sides in one slice.  The outcomes must be those of the default.
    def outcomes(bound):
        monkeypatch.setattr(subspaces, "_SLICE_ENTRIES", bound)
        ctx = _SearchContext(rho, 2, bases, DEFAULT_TOLERANCE, CANDIDATE_CAP)
        return [
            (
                got.classification,
                got.signature,
                np.float64(got.weight).tobytes(),
                None if got.state is None else got.state.mat.tobytes(),
            )
            for _, got in ctx.classify(range(ctx.count), subspaces._CLASSES)
        ]

    default = outcomes(subspaces._SLICE_ENTRIES)
    assert len(default) == candidate_count(tensor_power(rho, 2).shape)
    for bound in (1, 7, 300):
        assert outcomes(bound) == default


def two_qubit_mixture(*terms) -> DensityMatrix:
    """``sum w |v><v|`` over ``(w, v)`` terms of two-qubit amplitudes."""
    mat = sum(w * np.outer(v, np.conj(v)) for w, v in terms)
    return DensityMatrix(SystemShape.of(("A", 2), ("B", 2)), mat)


EPS = DEFAULT_TOLERANCE.purity_atol
S2 = DEFAULT_TOLERANCE.rank_rtol
PHI = np.array([1, 0, 0, 1]) / np.sqrt(2)
ZERO_PLUS, ZERO_MINUS = np.array([1, 1, 0, 0]) / np.sqrt(2), np.array([1, -1, 0, 0]) / np.sqrt(2)


@pytest.mark.parametrize(
    "rho,position,kept",
    [
        # Residual weight 5 * purity_atol, deficit ~1e-8: inside the mixed margin.
        (two_qubit_mixture((1 - 5 * EPS, PHI), (5 * EPS, np.eye(4)[1])), 8, (True, True)),
        # Residual weight 15 * purity_atol, deficit ~3e-8: dropped as mixed.
        (two_qubit_mixture((1 - 15 * EPS, PHI), (15 * EPS, np.eye(4)[1])), 8, (False, False)),
        # Second squared Schmidt coefficient 0.2 * rank_rtol: inside the product margin.
        (two_qubit_mixture((1, np.sqrt([1 - 0.2 * S2, 0, 0, 0.2 * S2]))), 8, (True, True)),
        # 0.02 * rank_rtol: dropped as product.
        (two_qubit_mixture((1, np.sqrt([1 - 0.02 * S2, 0, 0, 0.02 * S2]))), 8, (True, False)),
        # One index on party A: product by its shape, though not exactly pure.
        (two_qubit_mixture((1 - 5 * EPS, ZERO_PLUS), (5 * EPS, ZERO_MINUS)), 2, (True, False)),
    ],
    ids=["mixed-inside", "mixed-outside", "product-inside", "product-outside", "product-by-shape"],
)
def test_screen_margins(rho, position, kept):
    # Position 8 is ((0, 1), (0, 1)) and position 2 is ((0,), (0, 1)).
    ctx = _SearchContext(rho, 1, None, DEFAULT_TOLERANCE, CANDIDATE_CAP)
    assert tuple(position in ctx.screen(entangled)[0] for entangled in (False, True)) == kept


def test_find_dss_single_copy_empty():
    assert find_dss(three_qubit_example(0.5)) == []


def test_find_dss_two_copies_recovers_certificate():
    two = tensor_power(three_qubit_example(0.5), 2)
    certs = find_dss(two)
    assert any(c.subspace.basis_indices == ((1, 2), (1, 2), (1, 2)) for c in certs)
    for cert in certs:
        assert cert.outcome.classification == "pure-entangled"
        assert cert.outcome.weight == pytest.approx(0.125, abs=1e-9)


def test_find_dss_pure_input_full_space():
    rho = bell_state("phi+").to_density()
    certs = find_dss(rho)
    assert len(certs) == 1
    assert certs[0].subspace.basis_indices == ((0, 1), (0, 1))
    assert certs[0].outcome.signature == (2, 2)


def test_find_dss_respects_require_entangled():
    sigma = three_qubit_example(0.5)
    relaxed = find_dss(sigma, require_entangled=False)
    assert relaxed  # pure product projections exist
    assert all(c.outcome.classification == "pure-product" for c in relaxed)


def test_find_dss_min_signature():
    two = tensor_power(three_qubit_example(0.5), 2)
    assert find_dss(two, min_signature=(2, 2, 2))
    assert find_dss(two, min_signature=(3, 3, 3)) == []


def test_find_dss_candidate_cap():
    rho = maximally_mixed(SystemShape.of(("A", 12), ("B", 12)))
    with pytest.raises(SearchSpaceTooLarge) as err:
        find_dss(rho)
    assert err.value.count == (2**12 - 1) ** 2


def raised_with_peak(error, call):
    """The ``error`` that ``call()`` raises, and the traced peak allocation
    in bytes until then."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as err:
            call()
        return err.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("copies,count", [(3, 16_581_375), (4, 281_462_092_005_375)])
def test_find_dss_refuses_above_the_cap_before_building_the_power(copies, count):
    # The refused powers would take 4 MiB (side 512) and 256 MiB (side 4096).
    err, peak = raised_with_peak(
        SearchSpaceTooLarge, lambda: find_dss(three_qubit_example(0.5), copies=copies)
    )
    assert err.count == count
    assert peak < 1 << 20


def test_searches_keep_the_tensor_power_errors():
    rho = werner(0.9)
    for copies, error in [(0, InvariantViolation), (7, DimensionCapError)]:
        with pytest.raises(error) as dense:
            tensor_power(rho, copies)
        for search in (find_dss, find_purifying_subspaces):
            err, peak = raised_with_peak(error, lambda: search(rho, copies=copies))
            assert str(err) == str(dense.value)
            assert peak < 1 << 20


def test_find_purifying_subspaces_refuses_above_the_cap_before_building_the_power():
    # werner(0.9) at 5 copies: dims (32, 32), and a 16 MiB power.
    err, peak = raised_with_peak(
        SearchSpaceTooLarge, lambda: find_purifying_subspaces(werner(0.9), copies=5)
    )
    assert err.count == (2**32 - 1) ** 2
    assert peak < 1 << 20


def test_find_dss_rotated_bases():
    # A Bell state is product in the magic bases u (x) v from its Schmidt
    # vectors; rotated bases expose subspaces the computational search misses.
    rng = np.random.default_rng(101)
    u = random_unitary(rng, 2)
    v = random_unitary(rng, 2)
    shape = SystemShape.qubits("AB")
    vec = np.kron(u[:, 0], v[:, 0])
    rho = DensityMatrix.mixture(shape, [(1.0, vec)])
    # no entangled certificate anywhere for a product state
    assert find_dss(rho, bases={"A": u, "B": v}) == []
    certs = find_dss(rho, bases={"A": u, "B": v}, require_entangled=False)
    assert any(c.subspace.basis_indices == ((0,), (0,)) for c in certs)


def test_pruned_and_unpruned_agree_on_planted_instances():
    rng = np.random.default_rng(103)
    for _ in range(20):
        state, planted = planted_instance(rng)
        pruned = [certificate_summary(c) for c in find_dss(state, prune=True)]
        unpruned = [certificate_summary(c) for c in find_dss(state, prune=False)]
        assert pruned == unpruned
        assert any(summary[0] == planted for summary in pruned)


def test_find_dss_certificates_are_sound():
    rng = np.random.default_rng(107)
    for _ in range(5):
        state, _ = planted_instance(rng)
        for cert in find_dss(state):
            verdict = check_certificate(state, cert.subspace)
            assert isinstance(verdict, DssCertificate)
            assert verdict.outcome.weight == pytest.approx(cert.outcome.weight, abs=1e-9)
            assert np.max(np.abs(verdict.outcome.state.mat - cert.outcome.state.mat)) <= 1e-9


# ---------------------------------------------------------------------------
# Rank bound
# ---------------------------------------------------------------------------


def test_rank_bound_values():
    assert rank_bound(SystemShape.qubits("ABC"), 2, (2, 2, 2)) == 64 - 8 + 1
    assert rank_bound(SystemShape.qubits("AB"), 1, (2, 2)) == 1
    assert rank_bound(SystemShape.qubits("AB"), 1, (1, 1)) == 4
    assert rank_bound(SystemShape.qubits("AB"), 2, (4, 4)) == 1


@pytest.mark.parametrize(
    "copies,signature",
    [(1, (0, 2)), (1, (2, 2, 2)), (1, (3,)), (1, (5, 5)), (1, (3, 2)), (2, (5, 4))],
    ids=["zero-entry", "extra-entry", "missing-entry", "above-dims", "one-above", "above-power"],
)
def test_rank_bound_refuses_signatures_outside_the_dims(copies, signature):
    # One entry per party, each between 1 and the party's dim d_i^copies.
    with pytest.raises(InvariantViolation) as err:
        rank_bound(SystemShape.qubits("AB"), copies, signature)
    assert err.value.invariant == "signature"


def test_check_rank_bound_worked_example():
    sigma = three_qubit_example(0.5)
    two = tensor_power(sigma, 2)
    cert = check_certificate(
        two, LocalSubspace.from_indices(two.shape, {lbl: (1, 2) for lbl in "ABC"})
    )
    report = check_rank_bound(sigma, 2, cert)
    assert report.rank == 4
    assert report.bound == 57
    assert report.satisfied


def test_check_rank_bound_pure_state():
    rho = bell_state("phi+").to_density()
    cert = find_dss(rho)[0]
    report = check_rank_bound(rho, 1, cert)
    assert report.rank == 1
    assert report.satisfied


def test_rank_bound_never_violated_on_planted_instances():
    rng = np.random.default_rng(109)
    for _ in range(10):
        state, _ = planted_instance(rng)
        for cert in find_dss(state):
            report = check_rank_bound(state, 1, cert)
            assert report.satisfied


# ---------------------------------------------------------------------------
# Purifying subspaces
# ---------------------------------------------------------------------------


def test_find_purifying_subspaces_werner():
    found = find_purifying_subspaces(werner(0.9), copies=2)  # reference: the single copy
    # Projections that hand back a single copy tie the reference to an ulp
    # and are not listed.
    assert [f.subspace.basis_indices for f in found] == [((1, 2), (1, 2)), ((0, 3), (0, 3))]
    for f in found:
        assert f.measure_after > f.measure_before
        assert f.measure_before == pytest.approx(0.8, abs=1e-9)


@pytest.mark.parametrize("rotated", [False, True])
def test_find_purifying_subspaces_measures_as_concurrence_does(rotated):
    # The mixed outcomes are measured in one stacked call, bit-equal to
    # concurrence of each outcome's state.
    rng = np.random.default_rng(29)
    bases = {label: _rotation(rng, 4, 0.3) for label in "AB"} if rotated else None
    found = find_purifying_subspaces(werner(0.9), bases, copies=2, reference=0.5)
    assert found
    assert [f.measure_after for f in found] == [concurrence(f.outcome.state) for f in found]


def test_find_purifying_subspaces_maximal_reference():
    assert find_purifying_subspaces(werner(1.0), copies=2) == []


def test_find_purifying_subspaces_product_state():
    shape = SystemShape.qubits("AB")
    rho = DensityMatrix.mixture(shape, [(1.0, product_basis_vector(shape, (0, 1)))])
    assert find_purifying_subspaces(rho, copies=2) == []


def test_find_purifying_subspaces_default_reference_is_the_single_copy():
    rho = werner(0.9)
    found = find_purifying_subspaces(rho, copies=2)
    assert found
    assert all(f.measure_before == concurrence(rho) for f in found)
    assert find_purifying_subspaces(rho, copies=2, reference=0.99) == []


def test_project_matches_explicit_compression_random_complex():
    rng = np.random.default_rng(223)
    shape = SystemShape.of(("A", 2), ("B", 3))
    for _ in range(10):
        rho = random_density(rng, shape, rank=int(rng.integers(1, 7)))
        sub = LocalSubspace((("A", random_unitary(rng, 2)[:, :1]), ("B", random_unitary(rng, 3)[:, :2])))
        b = np.kron(sub.parties[0][1], sub.parties[1][1])
        raw = b.conj().T @ rho.mat @ b
        weight = float(np.real(np.trace(raw)))
        outcome = project(rho, sub)
        assert outcome.weight == pytest.approx(weight, abs=1e-12)
        assert np.max(np.abs(outcome.state.mat - raw / weight)) <= 1e-12


@pytest.mark.parametrize(
    "bases,invariant,message",
    [
        ({"Z": np.eye(2)}, "label", "unknown parties in bases: ['Z']"),
        ({"A": np.eye(3)}, "dimension", "basis for party 'A' must be 2x2, got (3, 3)"),
        (
            {"A": np.array([[1.0, 1.0], [0.0, 1.0]])},
            "orthonormal",
            "basis for party 'A' is not orthonormal (deviation 1.000e+00)",
        ),
    ],
    ids=["unknown-party", "wrong-shape", "non-orthonormal"],
)
@pytest.mark.parametrize("search", [find_dss, find_purifying_subspaces], ids=lambda f: f.__name__)
def test_searches_reject_bad_bases(search, bases, invariant, message):
    with pytest.raises(InvariantViolation) as err:
        search(werner(0.9), bases=bases)
    assert err.value.invariant == invariant
    assert str(err.value) == message


def test_from_indices_refuses_a_repeated_index():
    shape = SystemShape.qubits("AB")
    with pytest.raises(InvariantViolation) as err:
        LocalSubspace.from_indices(shape, {"A": (0, 0)})
    assert err.value.invariant == "orthonormal"


def test_from_indices_cuts_read_only_columns_of_rotated_bases():
    rng = np.random.default_rng(31)
    shape = SystemShape.of(("A", 3), ("B", 4))
    bases = {"A": random_unitary(rng, 3), "B": random_unitary(rng, 4)}
    indices = {"A": (2, 0), "B": (1, 3, 2)}
    sub = LocalSubspace.from_indices(shape, indices, bases)
    assert sub.basis_indices == ((2, 0), (1, 3, 2))
    for label, vecs in sub.parties:
        assert np.array_equal(vecs, bases[label][:, list(indices[label])])
        assert not vecs.flags.writeable


def test_full_equals_from_indices_with_no_selection():
    shape = SystemShape.of(("A", 2), ("B", (2, 3)))
    full, selected = LocalSubspace.full(shape), LocalSubspace.from_indices(shape, {})
    assert full.basis_indices == selected.basis_indices == ((0, 1), tuple(range(6)))
    for (la, va), (lb, vb) in zip(full.parties, selected.parties):
        assert la == lb and np.array_equal(va, vb) and not va.flags.writeable


def _rotation(rng, d, angle):
    """exp(i angle H) for a random Hermitian H."""
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(1j * angle * w)) @ v.conj().T


@pytest.mark.parametrize("angle,reference", [(0.05, None), (1.0, 0.3)])
def test_find_purifying_subspaces_matches_all_candidates_loop(angle, reference):
    rng = np.random.default_rng(17)
    two = tensor_power(werner(0.9), 2)
    bases = {label: _rotation(rng, 4, angle) for label in two.shape.labels}
    before = concurrence(werner(0.9)) if reference is None else reference
    expected = []
    for indices in iter_candidates(two.shape):
        if any(len(idx) != 2 for idx in indices):
            continue
        sub = LocalSubspace.from_indices(two.shape, dict(zip(two.shape.labels, indices)), bases)
        outcome = project(two, sub)
        if outcome.classification == "mixed" and concurrence(outcome.state) > before:
            expected.append((indices, outcome.weight, concurrence(outcome.state)))
    found = find_purifying_subspaces(werner(0.9), bases, copies=2, reference=reference)
    assert expected
    # The search reads blocks out of U† rho^2 U and project forms B† rho^2 B:
    # in rotated bases the two round differently, so weights and measures
    # agree to 1e-12 relative, not to the last bit.
    assert [f.subspace.basis_indices for f in found] == [indices for indices, _, _ in expected]
    for f, (_, weight, measure) in zip(found, expected):
        assert f.outcome.weight == pytest.approx(weight, rel=1e-12, abs=0.0)
        assert f.measure_after == pytest.approx(measure, rel=1e-12, abs=0.0)


def test_find_purifying_subspaces_default_reference_needs_two_parties_first():
    # The party count is checked before the default reference's concurrence.
    assert find_purifying_subspaces(three_qubit_example(0.5)) == []
    shape = SystemShape.of(("A", 2), ("B", 3))
    with pytest.raises(InvariantViolation) as err:
        find_purifying_subspaces(random_density(np.random.default_rng(3), shape))
    assert err.value.invariant == "shape"


def test_find_purifying_subspaces_three_party_power_is_empty():
    two = tensor_power(three_qubit_example(0.5), 2)
    assert find_purifying_subspaces(two, reference=0.0) == []
