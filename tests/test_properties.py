"""Property tests of the subspace search, of tensor powers and of the
kernels behind local operations.

Each search example draws a seed and builds a state on two or three
parties: a random low-rank state, or a planted instance hiding a pure
entangled state on a basis-aligned subspace.  Half of those examples rotate
the state by random local unitaries and search in the rotated bases, where
the planted subspace is again basis-aligned.  A third kind searches a pure
product state in bases that hold near-zero-weight projections, whose
renormalization magnifies roundoff.  The searches' batched classification
is checked candidate by candidate against ``project`` and against the
classification written out for one candidate, and the core-first search's
records against the flat search, certificate by certificate.

The tensor-power examples check what is read off the single-copy spectrum
(the rank and the positivity of the n-copy state, the top eigenvector of a
pure power) against the dense computation on the n-copy matrix, and the
projection of a power, read from single-copy entries or contracted copy by
copy, against the projection of the dense power.  The searches handed the
single copy and ``copies`` are checked against the same searches of the
built power.

The kernel examples check ``kron_all`` against chained ``np.kron``, the
sliced measurement outcomes against dense padded post-selection, and the
stacked two-qubit concurrence against ``concurrence`` state by state.
"""

import functools
import itertools
import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsskit import (
    DensityMatrix,
    DimensionCapError,
    InvariantViolation,
    LocalSubspace,
    LocalUnitary,
    MeasureAndDiscard,
    Party,
    ProductOperator,
    PureState,
    SystemShape,
    apply,
    bell_state,
    concurrence,
    decompose,
    dimension_signature,
    fidelity_with_pure,
    filter_example,
    find_dss,
    find_purifying_subspaces,
    ghz_distillation_steps,
    ghz_state,
    numerical_rank,
    power_rank,
    project,
    run,
    schmidt,
    search_dss,
    tensor_power,
    three_qubit_example,
    w_state,
    werner,
)
from dsskit import fileio, states, subspaces
from dsskit.cli import main
from dsskit.entanglement import _concurrence_stack, _cut_ranks
from dsskit.linalg import ZERO_WEIGHT, Tolerance, kron_all
from dsskit.subspaces import _SearchContext

from helpers import (
    certificate_summary,
    contract_reference,
    iter_candidates,
    planted_instance,
    random_density,
    random_invertible_contraction,
    random_pure_vector,
    random_unitary,
)

SHAPES = [
    SystemShape.of(("A", 2), ("B", 2), ("C", 2)),
    SystemShape.of(("A", 3), ("B", 3)),
    SystemShape.of(("A", 2), ("B", 3)),
    SystemShape.of(("A", 2), ("B", 2)),
]

PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)


def near_orthogonal_instance(rng: np.random.Generator, gap: float):
    """A pure product state and search bases whose first party-A column lies
    ``gap`` away from orthogonal to the A factor, the other parties' bases
    rotated at random.  Candidates on that column have weights near
    ``gap**2``, so renormalizing them magnifies the roundoff by ``1/gap**2``."""
    shape = SHAPES[rng.integers(len(SHAPES))]
    factors = [random_pure_vector(rng, p.dim) for p in shape.parties]
    state = PureState(shape, kron_all(f[:, None] for f in factors)[:, 0]).to_density()
    u, d = factors[0], shape.dims[0]
    w = random_pure_vector(rng, d)
    w -= np.vdot(u, w) * u
    first = w / np.linalg.norm(w) + gap * u
    columns = np.column_stack([first, random_unitary(rng, d)[:, 1:]])
    bases = {p.label: random_unitary(rng, p.dim) for p in shape.parties[1:]}
    bases[shape.labels[0]] = np.linalg.qr(columns)[0]
    return state, bases


@st.composite
def search_instances(draw):
    """``(state, bases, planted)``; ``planted`` is None but for planted
    instances.  A near-orthogonal instance comes with its own bases."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["planted", "random", "near-orthogonal"]))
    if kind == "near-orthogonal":
        return (*near_orthogonal_instance(rng, 10 ** draw(st.floats(-6, -4))), None)
    if kind == "planted":
        state, planted = planted_instance(rng)
    else:
        shape = SHAPES[draw(st.integers(0, len(SHAPES) - 1))]
        state, planted = random_density(rng, shape, rank=draw(st.integers(1, 3))), None
    bases = None
    if draw(st.booleans()):
        bases = {p.label: random_unitary(rng, p.dim) for p in state.shape.parties}
        change = kron_all(bases[label] for label in state.shape.labels)
        state = DensityMatrix(state.shape, change @ state.mat @ np.conj(change).T)
    return state, bases, planted


def candidate_block(ctx, indices) -> np.ndarray:
    """The candidate's block of the search context's ``local``, the state in
    the search basis, as the kernel decomposes it: its Hermitian part.  With
    supplied bases ``local`` is Hermitian only to roundoff, and one
    triangle's eigenvalues can then differ from the Hermitian part's by more
    than the screen's margin on a block of weight near ``ZERO_WEIGHT``."""
    rows = np.ravel_multi_index(np.ix_(*indices), ctx.shape.dims).ravel()
    block = ctx.local[np.ix_(rows, rows)]
    return (block + np.conj(block).T) / 2


def old_screen_keeps(block, tol) -> bool:
    """The per-candidate zero/mixed test: one ``eigvalsh`` of the block."""
    weight = float(np.trace(block).real)
    if weight <= ZERO_WEIGHT * 0.1:
        return False
    evals = np.linalg.eigvalsh(block)
    return float(np.sum(evals[:-1])) <= 10.0 * tol.purity_atol * weight


@PROPERTY_SETTINGS
@given(search_instances())
def test_batched_screen_keeps_what_the_per_candidate_test_keeps(instance):
    state, bases, _ = instance
    ctx = _SearchContext(state, 1, bases, Tolerance(), subspaces.CANDIDATE_CAP)
    positions, counts = ctx.screen(require_entangled=False)
    expected = [
        pos for pos, c in enumerate(iter_candidates(state.shape)) if old_screen_keeps(candidate_block(ctx, c), ctx.tol)
    ]
    kept = positions.tolist()
    assert kept == expected
    assert counts.product == 0
    assert counts.zero + counts.mixed + len(kept) == subspaces.candidate_count(state.shape)


def old_screen_verdict(block, tol, indices) -> str:
    """The per-candidate zero/mixed/product test: "zero", "mixed", "product"
    or "keep", from one ``eigh`` of the candidate's block.  Its top
    eigenvector is product when its cut ranks at a tenth of ``rank_rtol``
    are all at most 1."""
    weight = float(np.trace(block).real)
    if weight <= ZERO_WEIGHT * 0.1:
        return "zero"
    evals, evecs = np.linalg.eigh(block)
    if float(np.sum(evals[:-1])) > 10.0 * tol.purity_atol * weight:
        return "mixed"
    sizes = [len(idx) for idx in indices]
    return "product" if np.all(_cut_ranks([(evecs[np.newaxis, :, -1], sizes)], 0.1 * tol.rank_rtol) <= 1) else "keep"


@PROPERTY_SETTINGS
@given(search_instances())
def test_batched_product_screen_keeps_what_the_per_candidate_test_keeps(instance):
    state, bases, _ = instance
    ctx = _SearchContext(state, 1, bases, Tolerance(), subspaces.CANDIDATE_CAP)
    positions, counts = ctx.screen(require_entangled=True)
    verdicts = [old_screen_verdict(candidate_block(ctx, c), ctx.tol, c) for c in iter_candidates(state.shape)]
    assert positions.tolist() == [pos for pos, v in enumerate(verdicts) if v == "keep"]
    assert (counts.zero, counts.mixed, counts.product) == tuple(
        verdicts.count(v) for v in ("zero", "mixed", "product")
    )


@PROPERTY_SETTINGS
@given(search_instances(), st.booleans())
def test_pruned_search_equals_unpruned(instance, require_entangled):
    state, bases, planted = instance

    def search(prune, **kwargs):
        certs = find_dss(state, bases, require_entangled=require_entangled, prune=prune, **kwargs)
        return [certificate_summary(c) for c in certs]

    pruned = search(True)
    assert pruned == search(False)
    if planted is not None:
        assert any(summary[0] == planted for summary in pruned)
    floor = (2,) * len(state.shape.parties)
    assert search(True, min_signature=floor) == search(False, min_signature=floor)


def reference_classification(rho: DensityMatrix, sub: LocalSubspace, tol: Tolerance) -> tuple:
    """The classification and signature of ``rho`` on ``sub``, written out
    for one candidate: compress, renormalize, one ``eigh``, and the
    signature of the top eigenvector only when the projection is pure."""
    m = np.conj(sub.compression()).T
    out = m @ rho.mat @ np.conj(m).T
    weight = float(np.real(np.trace(out)))
    if weight <= ZERO_WEIGHT:
        return "zero", None
    state = out / weight
    evals, evecs = np.linalg.eigh((state + np.conj(state).T) / 2)
    if evals[-1] < 1.0 - tol.purity_atol:
        return "mixed", None
    signature = dimension_signature(PureState(sub.subspace_shape(), evecs[:, -1]), tol)
    return ("pure-entangled" if max(signature) > 1 else "pure-product"), signature


def assert_outcomes_match(got, want, computational: bool):
    """A batched outcome against ``project``'s: the same classification and
    signature; on computational bases the same weight and state matrix to
    the last bit, on rotated ones the weight to 1e-12 and the unnormalized
    block ``weight * state`` to 1e-12."""
    assert (got.classification, got.signature) == (want.classification, want.signature)
    if want.state is None:
        assert got.state is None and got.weight == want.weight == 0.0
    elif computational:
        assert got.weight == want.weight
        assert np.array_equal(got.state.mat, want.state.mat)
    else:
        assert abs(got.weight - want.weight) <= 1e-12
        assert np.max(np.abs(got.weight * got.state.mat - want.weight * want.state.mat)) <= 1e-12


@PROPERTY_SETTINGS
@given(search_instances(), st.booleans())
def test_batched_classification_equals_project(instance, require_entangled):
    """Every candidate classified in slices of consecutive positions, blocks
    read by index out of the state in the search basis and stacked by side,
    against ``project`` on its own and against the classification written
    out per candidate: zero, mixed, product and entangled blocks all occur
    unpruned."""
    state, bases, _ = instance
    ctx = _SearchContext(state, 1, bases, Tolerance(), subspaces.CANDIDATE_CAP)
    kept = []
    for (sub, got), indices in zip(ctx.classify(range(ctx.count), subspaces._CLASSES), iter_candidates(state.shape)):
        assert sub.basis_indices == indices
        want = project(tensor_power(state, 1), sub)
        assert_outcomes_match(got, want, computational=bases is None)
        assert reference_classification(state, sub, ctx.tol) == (got.classification, got.signature)
        if want.classification == "pure-entangled" or (
            not require_entangled and want.classification == "pure-product"
        ):
            kept.append((indices, want.signature))
    certs = find_dss(state, bases, require_entangled=require_entangled, prune=False)
    assert [(c.subspace.basis_indices, c.outcome.signature) for c in certs] == kept


@pytest.mark.parametrize("rotated", [False, True])
def test_batched_classification_of_a_power_equals_project(rotated):
    # example3q(0.5)^2 holds all four classifications among its 3375
    # candidates; werner(0.9)^2 in rotated bases, 225 of them.
    rho, bases = three_qubit_example(0.5), None
    if rotated:
        rng = np.random.default_rng(29)
        rho, bases = werner(0.9), {label: random_unitary(rng, 4) for label in "AB"}
    power = tensor_power(rho, 2)
    ctx = _SearchContext(rho, 2, bases, Tolerance(), subspaces.CANDIDATE_CAP)
    seen = set()
    for sub, got in ctx.classify(range(ctx.count), subspaces._CLASSES):
        assert_outcomes_match(got, project(power, sub), computational=not rotated)
        assert reference_classification(power, sub, ctx.tol) == (got.classification, got.signature)
        seen.add(got.classification)
    if not rotated:
        assert seen == {"zero", "mixed", "pure-product", "pure-entangled"}


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_batched_classification_of_a_rotated_power_equals_project(seed, rank):
    """Every candidate of a random two-qubit state's square (225) on random
    bases of the power's parties, against ``project`` from the single copy.
    The pure blocks of all sides share one cut-rank call, each top
    eigenvector put at its rows in a zero vector of the power's side; the
    classification and the signature must still be those of the block
    alone."""
    rng = np.random.default_rng(seed)
    rho = random_density(rng, SystemShape.of(("A", 2), ("B", 2)), rank=rank)
    bases = {label: random_unitary(rng, 4) for label in "AB"}
    ctx = _SearchContext(rho, 2, bases, Tolerance(), subspaces.CANDIDATE_CAP)
    seen = set()
    for sub, got in ctx.classify(range(ctx.count), subspaces._CLASSES):
        assert_outcomes_match(got, project(rho, sub, copies=2), computational=False)
        seen.add(got.signature)
    if rank == 1:
        assert len(seen - {None}) > 1


def logged_stats(caplog, *args, **kwargs):
    """The certificates and the logged counts; the two logged timings are
    checked to be nonnegative floats and left out of the counts."""
    with caplog.at_level(logging.DEBUG, logger="dsskit"):
        certs = find_dss(*args, **kwargs)
    (record,) = [r for r in caplog.records if hasattr(r, "search_stats")]
    caplog.clear()
    stats = dict(record.search_stats)
    for key in ("screen_s", "classify_s"):
        seconds = stats.pop(key)
        assert isinstance(seconds, float) and seconds >= 0.0
    return certs, stats


def test_search_stats_logged(caplog):
    two = tensor_power(three_qubit_example(0.5), 2)
    certs, stats = logged_stats(caplog, two)
    assert len(certs) == 24
    assert stats == {
        "candidates": 3375,
        "screened_zero": 1167,
        "screened_mixed": 1229,
        "screened_product": 955,
        "classified": 24,
        "smaller_cores": 23,
        "decomposed": 1,
        "certificates": 24,
        "padded": 23,
    }

    certs, three = logged_stats(caplog, werner(0.9), copies=3)
    assert certs == []
    assert three == {
        "candidates": 65025,
        "screened_zero": 0,
        "screened_mixed": 64961,
        "screened_product": 64,
        "classified": 0,
        "smaller_cores": 0,
        "decomposed": 0,
        "certificates": 0,
        "padded": 0,
    }

    two = tensor_power(werner(0.9), 2)
    _, flat = logged_stats(caplog, two, require_entangled=False, prune=False)
    assert flat["classified"] == flat["candidates"] == 225
    assert flat["screened_zero"] == flat["screened_mixed"] == flat["screened_product"] == 0


@st.composite
def padded_instances(draw):
    """``(state, bases)``: a random state of rank 1 to 3 supported on a
    product of per-party index sets, at least one of them strict, so every
    row of the state with an index outside them is exactly zero.  Half of
    them come in rotated bases that rotate each party's set among itself
    and the rest among itself, which keeps those rows exactly zero in the
    search basis; the state is rotated with them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = SHAPES[draw(st.integers(0, len(SHAPES) - 1))]
    strict = draw(st.integers(0, len(shape.parties) - 1))
    support = [
        np.sort(rng.choice(d, size=int(rng.integers(1, d if p == strict else d + 1)), replace=False))
        for p, d in enumerate(shape.dims)
    ]
    rows = np.ravel_multi_index(np.ix_(*support), shape.dims).ravel()
    mat = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    for w in rng.dirichlet(np.ones(draw(st.integers(1, 3)))):
        v = np.zeros(shape.total_dim, dtype=np.complex128)
        v[rows] = random_pure_vector(rng, len(rows))
        mat += w * np.outer(v, np.conj(v))
    state, bases = DensityMatrix(shape, mat), None
    if draw(st.booleans()):
        bases = {}
        for p, s in zip(shape.parties, support):
            rest = np.setdiff1d(np.arange(p.dim), s)
            u = np.zeros((p.dim, p.dim), dtype=np.complex128)
            u[np.ix_(s, s)] = random_unitary(rng, len(s))
            u[np.ix_(rest, rest)] = random_unitary(rng, len(rest))
            bases[p.label] = u
        change = kron_all(bases[label] for label in shape.labels)
        state = DensityMatrix(shape, change @ state.mat @ np.conj(change).T)
    return state, bases


@PROPERTY_SETTINGS
@given(padded_instances())
def test_classification_on_cores_equals_the_full_block(instance):
    """Every candidate, classified on its full block, against the
    classification written out on that block, and against its core's (the
    candidate without the indices whose rows and columns are exactly zero,
    from ``cores``); some candidates do have a smaller core."""
    state, bases = instance
    ctx = _SearchContext(state, 1, bases, Tolerance(), subspaces.CANDIDATE_CAP)
    got = []
    for sub, outcome in ctx.classify(range(ctx.count), subspaces._CLASSES):
        got.append((outcome.classification, outcome.signature))
        assert reference_classification(state, sub, ctx.tol) == got[-1]
    positions = np.arange(ctx.count)
    core_at, weights = ctx.cores(positions)
    live = np.flatnonzero(weights > ZERO_WEIGHT)
    assert [got[c] for c in core_at[live]] == [got[i] for i in live]
    assert np.any(core_at[live] != positions[live])


def test_padding_needs_a_whole_zero_row():
    # Row |11> has a zero diagonal but the entry <00|M|11> = c: no index is
    # padding, so the core is the block, whose top eigenvector lies on |00>
    # and |11>.  A rule keyed on the diagonal alone would drop index 1 at
    # both parties and leave the 1x1 core [[1]], a product.
    # The kernel classifies the whole block; the core comes from ``cores``
    # on a search whose ``local`` is the planted block, where the candidate
    # {0, 1} x {0, 1} is position 8 and {0} x {0} position 0.
    c = 0.25
    block = np.zeros((1, 4, 4), dtype=np.complex128)
    block[0, 0, 0], block[0, 0, 3], block[0, 3, 0] = 1.0, c, c
    ctx = _SearchContext(bell_state().to_density(), 1, None, Tolerance(), subspaces.CANDIDATE_CAP)
    ctx.local = block[0]
    codes, ranks = subspaces._classify_stack([(block, np.array([[2, 2]]))], Tolerance())
    assert subspaces._CLASSES[codes[0]] == "pure-entangled"
    assert ranks.tolist() == [[2, 2]] and ctx.cores([8])[0].tolist() == [8]
    # With the row zeroed, index 1 is padding at both parties.
    block[0, 0, 3] = block[0, 3, 0] = 0.0
    codes, ranks = subspaces._classify_stack([(block, np.array([[2, 2]]))], Tolerance())
    assert subspaces._CLASSES[codes[0]] == "pure-product"
    assert ranks.tolist() == [[1, 1]] and ctx.cores([8])[0].tolist() == [0]


# ---------------------------------------------------------------------------
# The core-first search
# ---------------------------------------------------------------------------


def record_fields(record) -> tuple:
    """A search record's indices, weight bytes, classification and signature."""
    return record.indices, np.float64(record.weight).tobytes(), record.classification, record.signature


def certificate_fields(cert) -> tuple:
    """The same fields of a certificate."""
    outcome = cert.outcome
    return (
        cert.subspace.basis_indices, np.float64(outcome.weight).tobytes(), outcome.classification, outcome.signature
    )


def assert_core_first_is_the_flat_search(state, bases, copies=1, **kwargs):
    """``search_dss``'s records against the flat ``find_dss(..., prune=False)``
    in order and fields, and ``find_dss`` (the same run as ``search_dss``,
    materialized) against it in fields and state bytes.  Each record's core
    is a certificate inside it with its classification and signature, and
    ``padded`` counts the records that are not their own core.  Returns the
    search."""
    search = search_dss(state, bases, copies=copies, **kwargs)
    flat = find_dss(state, bases, copies=copies, prune=False, **kwargs)
    assert [record_fields(r) for r in search.records] == [certificate_fields(c) for c in flat]
    certs = find_dss(state, bases, copies=copies, **kwargs)
    assert [certificate_fields(c) for c in certs] == [certificate_fields(c) for c in flat]
    for got, want in zip(certs, flat):
        assert np.array_equal(got.outcome.state.mat, want.outcome.state.mat)
    for record in search.records:
        core = search.cores[record.core]
        assert all(set(c) <= set(i) for c, i in zip(core.subspace.basis_indices, record.indices))
        assert (core.outcome.classification, core.outcome.signature) == (record.classification, record.signature)
    assert sorted({r.core for r in search.records}) == list(range(len(search.cores)))
    padded = sum(r.indices != search.cores[r.core].subspace.basis_indices for r in search.records)
    assert search.stats["padded"] == padded
    return search


@PROPERTY_SETTINGS
@given(st.one_of(padded_instances(), search_instances().map(lambda instance: instance[:2])), st.booleans(), st.booleans())
def test_core_first_search_equals_the_flat_search(instance, require_entangled, floor):
    """States with exact-zero rows in computational and in block-rotated
    bases, which keep the zeros, and the search instances (random, planted
    and near-orthogonal, half of them in rotated bases)."""
    state, bases = instance
    floor = (2,) * len(state.shape.parties) if floor else None
    assert_core_first_is_the_flat_search(state, bases, require_entangled=require_entangled, min_signature=floor)


@pytest.mark.parametrize("bases", ["computational", "block-rotated", "rotated"])
def test_core_first_search_of_a_power_equals_the_flat_search(bases):
    # On computational bases 23 of the 24 certificates of example3q(0.5)^2
    # are zero-padded copies of one (2,2,2) core; rotating each party's
    # {0,1} and {2,3} among themselves keeps the zeros, a full rotation
    # leaves none.
    rng = np.random.default_rng(17)
    rotations = {
        "computational": lambda: None,
        "block-rotated": lambda: np.kron(np.diag([1.0, 0.0]), random_unitary(rng, 2))
        + np.kron(np.diag([0.0, 1.0]), random_unitary(rng, 2)),
        "rotated": lambda: random_unitary(rng, 4),
    }
    rotation = rotations[bases]
    power_bases = None if bases == "computational" else {label: rotation() for label in "ABC"}
    rho = three_qubit_example(0.5)
    for require_entangled in (True, False):
        for floor in (None, (2, 2, 2)):
            search = assert_core_first_is_the_flat_search(
                rho, power_bases, copies=2, require_entangled=require_entangled, min_signature=floor
            )
            if bases == "computational" and require_entangled:
                assert (len(search.records), len(search.cores), search.stats["padded"]) == (24, 1, 23)
                assert (search.stats["classified"], search.stats["decomposed"]) == (24, 1)
            if bases == "rotated":
                assert search.stats["padded"] == 0


@pytest.mark.parametrize("transpose", [False, True])
def test_core_rule_reads_rows_and_columns(monkeypatch, transpose):
    """A planted non-Hermitian state in the search basis: ``local[0, 3]`` is
    nonzero and every other entry of row and column 3 (|11>) is zero, or
    the transpose.  Index 1 is then padding at neither party, since |11>
    touches |00>, and every candidate's core-first record must equal its
    flat one, every candidate read: the whole space is pure and entangled
    (its block's Hermitian part has |00> and |11> in its top eigenvector),
    while dropping |11> for a zero row, or a zero column, leaves the core
    [[1]], a product."""
    ctx = _SearchContext(bell_state().to_density(), 1, None, Tolerance(), subspaces.CANDIDATE_CAP)
    local = np.zeros((4, 4), dtype=np.complex128)
    local[0, 0], local[0, 3] = 1.0, 0.5
    ctx.local = local.T.copy() if transpose else local
    monkeypatch.setattr(ctx, "screen", lambda require_entangled: (np.arange(ctx.count), subspaces._ScreenCounts()))
    for require_entangled in (True, False):
        core_first, _, _ = subspaces._search(ctx, require_entangled, None, True)
        flat, _, _ = subspaces._search(ctx, require_entangled, None, False)
        assert [record_fields(r) for r in core_first.records] == [record_fields(r) for r in flat.records]
        assert ((0, 1), (0, 1)) in [r.indices for r in core_first.records]


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_diagonal_sums_are_the_block_traces(seed):
    """The search's weights, sums of the diagonal over each candidate's
    rows, against the traces of its blocks read and normalized as
    classification reads them, bit for bit, for every side from 1 to 64 and
    random row sets of a PSD matrix with exact-zero rows.  Pairwise
    summation regroups from 8 terms up, so a sum in any other order, or
    over zeros interleaved, differs in the last bits."""
    rng = np.random.default_rng(seed)
    d = 80
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    local = a @ np.conj(a).T * 10.0 ** rng.uniform(-4, 4)
    zero = rng.choice(d, size=10, replace=False)
    local[zero], local[:, zero] = 0.0, 0.0
    side = rng.permutation(np.repeat(np.arange(1, 65), 2))
    mask = np.zeros((len(side), d), dtype=bool)
    for row, k in zip(mask, side):
        row[rng.choice(d, size=k, replace=False)] = True
    got = subspaces._diagonal_sums(np.diagonal(local), mask, side)
    want = np.empty(len(side))
    for k in range(1, 65):
        at = np.flatnonzero(side == k)
        rows = np.nonzero(mask[at])[1].reshape(-1, k)
        want[at] = states._normalized_stack(local[rows[:, :, np.newaxis], rows[:, np.newaxis, :]])[0]
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Tensor powers from the single-copy spectrum
# ---------------------------------------------------------------------------

#: (shape, copies) pairs up to side 512 on two and three parties.
POWER_CASES = [
    (SystemShape.of(("A", 2), ("B", 2)), 2),
    (SystemShape.of(("A", 2), ("B", 2)), 3),
    (SystemShape.of(("A", 2), ("B", 3)), 2),
    (SystemShape.of(("A", 2), ("B", 3)), 3),
    (SystemShape.of(("A", 3), ("B", 3)), 2),
    (SystemShape.of(("A", 2), ("B", 2), ("C", 2)), 2),
    (SystemShape.of(("A", 2), ("B", 2), ("C", 2)), 3),
]


def state_with_spectrum(rng, shape, weights) -> DensityMatrix:
    """``V diag(weights) V†`` for a random unitary ``V``."""
    vectors = random_unitary(rng, shape.total_dim)
    return DensityMatrix(shape, (vectors * weights) @ np.conj(vectors).T)


@st.composite
def power_instances(draw):
    """``(state, copies, tol)``: a random low-rank state whose spectrum has
    two planted small eigenvalues, so that some n-copy eigenvalues land at
    10x and at 0.1x the rank cutoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape, copies = POWER_CASES[draw(st.integers(0, len(POWER_CASES) - 1))]
    tol = Tolerance(rank_rtol=draw(st.sampled_from([1e-9, 1e-6])))
    d = shape.total_dim
    rank = draw(st.integers(1, d - 2))
    big = rng.dirichlet(np.ones(rank))
    scale = float(np.max(big)) ** (copies - 1)
    planted = np.array([10.0, 0.1]) * tol.rank_rtol / scale
    weights = np.zeros(d)
    weights[:rank] = big * (1.0 - planted.sum())
    weights[rank:rank + 2] = planted
    return state_with_spectrum(rng, shape, weights), copies, tol


def kron_permute_reference(rho: DensityMatrix, n: int) -> np.ndarray:
    """``n`` copies by plain kron, rows and columns reordered index by index
    from copy-major to party-major order."""
    dims = rho.shape.dims
    big = rho.mat
    for _ in range(n - 1):
        big = np.kron(big, rho.mat)
    order = []
    for digits in itertools.product(*(range(d) for d in dims for _ in range(n))):
        flat = 0
        for c in range(n):
            for p, d in enumerate(dims):
                flat = flat * d + digits[p * n + c]
        order.append(flat)
    return big[np.ix_(order, order)]


@PROPERTY_SETTINGS
@given(power_instances())
def test_power_rank_equals_dense_rank(instance):
    rho, copies, tol = instance
    assert power_rank(rho, copies, tol) == numerical_rank(tensor_power(rho, copies).mat, tol)


@PROPERTY_SETTINGS
@given(power_instances())
def test_tensor_power_matrix_is_the_kron_permute_reference(instance):
    rho, copies, _ = instance
    power = tensor_power(rho, copies)
    reference = kron_permute_reference(rho, copies)
    assert np.array_equal(power.mat, reference)
    assert power.mat.tobytes() == DensityMatrix(power.shape, reference).mat.tobytes()


@pytest.mark.parametrize("copies", [2, 3])
@pytest.mark.parametrize("psd_atol", [1e-9, 4e-10, 3e-10, 1e-10])
def test_power_positivity_decided_as_by_dense_eigvalsh(monkeypatch, copies, psd_atol):
    """A base with eigenvalue -5e-10 is valid; its n-copy state has a lowest
    eigenvalue of -3.5e-10 (n = 2) or -2.45e-10 (n = 3)."""
    rng = np.random.default_rng(5)
    rho = state_with_spectrum(rng, SystemShape.of(("A", 2), ("B", 2)), [0.7, 0.3 + 5e-10, 0.0, -5e-10])
    reference = kron_permute_reference(rho, copies)
    monkeypatch.setattr(states, "DEFAULT_TOLERANCE", Tolerance(psd_atol=psd_atol))

    def accepted(build) -> bool:
        try:
            build()
        except InvariantViolation as exc:
            assert exc.invariant == "positive-semidefinite"
            return False
        return True

    shape = SystemShape(tuple(Party(p.label, p.dims * copies) for p in rho.shape.parties))
    structured = accepted(lambda: tensor_power(rho, copies))
    dense = accepted(lambda: DensityMatrix(shape, reference))
    assert structured == dense == (psd_atol > {2: 3.5e-10, 3: 2.45e-10}[copies])


def test_public_constructor_checks_positivity_on_a_power_shape():
    shape = tensor_power(werner(0.9), 2).shape
    non_psd = np.diag([1.0 + 1e-3, -1e-3] + [0.0] * 14).astype(complex)
    with pytest.raises(InvariantViolation) as err:
        DensityMatrix(shape, non_psd)
    assert err.value.invariant == "positive-semidefinite"


@pytest.mark.parametrize("copies,error", [(0, InvariantViolation), (7, DimensionCapError)])
def test_power_rank_fails_where_tensor_power_fails(copies, error):
    with pytest.raises(error) as dense:
        tensor_power(werner(0.9), copies)
    with pytest.raises(error) as structured:
        power_rank(werner(0.9), copies)
    assert str(structured.value) == str(dense.value)


def test_rankbound_above_the_cap_exits_1(capsys):
    code = main(["rankbound", "--state", "werner", "--F", "0.9", "--copies", "7", "--signature", "2,2"])
    assert code == 1
    assert capsys.readouterr().err == "error: 7 copies give total dimension 16384, above the cap 4096\n"


@st.composite
def planted_cutoff_instances(draw):
    """``(rng, shape, weights, tol, rank)``: ``rank`` random weights, then two
    planted at 10x and 0.1x the rank cutoff ``rank_rtol * max(1, largest)``,
    then zeros; the weights sum to ``top``, which sits below or above 1.
    The cutoffs stay small enough that the dropped 0.1x value is within the
    1e-9 reconstruction check of :func:`decompose`."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = SHAPES[draw(st.integers(0, len(SHAPES) - 1))]
    tol = Tolerance(rank_rtol=draw(st.sampled_from([1e-9, 1e-10])))
    top = draw(st.sampled_from([1.0, 4.0]))
    rank = draw(st.integers(1, shape.total_dim - 2))
    big = rng.dirichlet(np.ones(rank)) * top
    planted = np.array([10.0, 0.1]) * tol.rank_rtol * max(1.0, float(np.max(big)))
    weights = np.zeros(shape.total_dim)
    weights[:rank] = big * (1.0 - planted.sum() / top)
    weights[rank:rank + 2] = planted
    return rng, shape, weights, tol, rank + 1


@PROPERTY_SETTINGS
@given(planted_cutoff_instances())
def test_decompose_and_search_keep_the_numerical_rank(instance):
    rng, shape, weights, tol, rank = instance
    d = shape.total_dim
    operator = random_unitary(rng, d) @ np.diag(weights) @ np.conj(random_unitary(rng, d)).T
    assert decompose(operator, tol).retained_dim == numerical_rank(operator, tol) == rank
    if np.isclose(weights.sum(), 1.0):
        rho = state_with_spectrum(rng, shape, weights)
        assert power_rank(rho, 1, tol) == numerical_rank(rho.mat, tol) == rank


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("preset", [bell_state, ghz_state, w_state], ids=lambda f: f.__name__)
def test_pure_power_top_eigenstate_matches_dense(preset, copies):
    single = preset().to_density()
    tol = Tolerance()
    power = tensor_power(single, copies)
    dense = power.top_eigenstate()
    psi = states._power_top_eigenstate(single, copies)
    assert psi.shape == power.shape
    assert dimension_signature(psi, tol) == dimension_signature(dense, tol)
    labels = power.shape.labels
    cut = (labels[:1], labels[1:])
    assert np.max(np.abs(schmidt(psi, cut) - schmidt(dense, cut))) <= 1e-12
    assert abs(abs(np.vdot(dense.amplitudes, psi.amplitudes)) - 1.0) <= 1e-12


def test_pure_power_top_eigenstate_refuses_an_ambiguous_top():
    with pytest.raises(InvariantViolation) as err:
        states._power_top_eigenstate(werner(0.5), 2)
    assert err.value.invariant == "degenerate"


# ---------------------------------------------------------------------------
# Projections of a tensor power, read or contracted from the single copy
# ---------------------------------------------------------------------------

#: Shapes by copy count, up to side 512: on two and three parties, and a
#: party of two qubit subsystems beside a qutrit party.
PROJECTION_CASES = {
    1: [SystemShape.of(("A", 2), ("B", 2), ("C", 2)), SystemShape.of(("A", (2, 2)), ("B", 3))],
    2: [shape for shape, copies in POWER_CASES if copies == 2] + [SystemShape.of(("A", (2, 2)), ("B", 3))],
    3: [shape for shape, copies in POWER_CASES if copies == 3],
}

#: How a subspace's columns are made.  The first three are computational
#: basis vectors; the look-alikes differ from one in a single column: an
#: entry -1.0 or 1j in place of 1.0, or -0.0 in its zero entries.
COMPUTATIONAL_KINDS = ("sorted", "unsorted", "file")
SUBSPACE_KINDS = COMPUTATIONAL_KINDS + ("rotated", "minus-one", "imaginary-unit", "negative-zeros")


def subspace_of_kind(rng, shape: SystemShape, sizes, kind: str) -> LocalSubspace:
    """A product subspace of ``shape`` with ``sizes[p]`` columns for party
    ``p``, made as ``kind`` (one of ``SUBSPACE_KINDS``) says: indices in
    ascending or random order, explicit one-hot columns written and read
    back by ``fileio``, random isometries, or a look-alike."""
    picks = {p.label: [int(i) for i in rng.permutation(p.dim)[:m]] for p, m in zip(shape.parties, sizes)}
    if kind == "sorted":
        return LocalSubspace.from_indices(shape, {label: sorted(idx) for label, idx in picks.items()})
    if kind == "unsorted":
        return LocalSubspace.from_indices(shape, picks)
    if kind == "rotated":
        return LocalSubspace(tuple(
            (p.label, random_unitary(rng, p.dim)[:, :m]) for p, m in zip(shape.parties, sizes)
        ))
    columns = [np.eye(p.dim, dtype=np.complex128)[:, picks[p.label]] for p in shape.parties]
    if kind == "file":
        explicit = LocalSubspace(tuple(zip(shape.labels, columns)))
        return fileio.load_subspace(json.loads(json.dumps(fileio.save_subspace(explicit))))
    party = int(rng.integers(len(columns)))
    column = columns[party][:, int(rng.integers(columns[party].shape[1]))]
    one = np.flatnonzero(column)
    if kind == "minus-one":
        column[one] = -1.0
    elif kind == "imaginary-unit":
        column[one] = 1j
    else:
        column[column == 0] = complex(-0.0, -0.0)
    return LocalSubspace(tuple(zip(shape.labels, columns)))


@st.composite
def power_projection_instances(draw):
    """``(state, copies, subspace, kind)``: a random complex state of rank
    1 to full, and a product subspace of its n-copy shape with 1 to 3
    vectors per party, made as ``kind`` says (``subspace_of_kind``)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    copies = int(rng.integers(1, 4))
    shape = PROJECTION_CASES[copies][int(rng.integers(len(PROJECTION_CASES[copies])))]
    kind = SUBSPACE_KINDS[int(rng.integers(len(SUBSPACE_KINDS)))]
    weights = np.zeros(shape.total_dim)
    rank = int(rng.integers(1, shape.total_dim + 1))
    weights[:rank] = rng.dirichlet(np.ones(rank))
    rho = state_with_spectrum(rng, shape, weights)
    power_shape = states._power_shape(rho, copies)
    sizes = [min(int(rng.choice([1, 2, 2, 3])), p.dim) for p in power_shape.parties]
    return rho, copies, subspace_of_kind(rng, power_shape, sizes, kind), kind


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(power_projection_instances())
def test_power_projection_matches_the_dense_power(instance):
    """``project`` at ``copies`` against the dense oracle ``B† rho^n B``,
    formed by matrix products with the built power and normalized as
    ``project`` normalizes.  On computational basis vectors the weight and
    state bytes equal the oracle's; on every other subspace, look-alikes
    included, they agree to 1e-12.  The classification and signature are
    those of projecting the built power."""
    rho, copies, subspace, kind = instance
    got = project(rho, subspace, copies=copies)
    power = tensor_power(rho, copies)
    b = subspace.compression()
    weights, live, normalized = states._normalized_stack((np.conj(b).T @ power.mat @ b)[np.newaxis])
    want = project(power, subspace)
    assert got.classification == want.classification
    assert got.signature == want.signature
    if not live[0]:
        assert got.classification == "zero"
    elif kind in COMPUTATIONAL_KINDS:
        assert got.weight == weights[0]
        assert got.state.mat.tobytes() == normalized[0].tobytes()
    else:
        assert abs(got.weight - weights[0]) <= 1e-12
        assert np.max(np.abs(got.state.mat - normalized[0])) <= 1e-12


def test_power_projection_refuses_what_tensor_power_refuses():
    rho = werner(0.9)
    two = tensor_power(rho, 2)
    full = LocalSubspace.full(two.shape)
    for copies, error in [(0, InvariantViolation), (7, DimensionCapError)]:
        with pytest.raises(error) as dense:
            tensor_power(rho, copies)
        tracemalloc.start()
        try:
            with pytest.raises(error) as structured:
                project(rho, full, copies=copies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(structured.value) == str(dense.value)
        assert peak < 1 << 20  # a 16384-side power would take 4 GiB
    relabelled = LocalSubspace.full(SystemShape.of(("A", 4), ("C", 4)))
    one_copy = LocalSubspace.full(rho.shape)
    for subspace, invariant in [(relabelled, "labels"), (one_copy, "dimension")]:
        with pytest.raises(InvariantViolation) as dense:
            project(two, subspace)
        with pytest.raises(InvariantViolation) as structured:
            project(rho, subspace, copies=2)
        assert structured.value.invariant == dense.value.invariant == invariant
        assert str(structured.value) == str(dense.value)


@pytest.mark.parametrize("copies", [2, 3])
@pytest.mark.parametrize("excess", [0.4e-9, 0.9e-9])
def test_power_trace_decided_as_by_the_dense_power(copies, excess):
    """A copy whose trace is ``1 + excess`` is valid; its n-copy trace
    ``(1 + excess)**n`` passes the 1e-9 margin only for 0.4e-9 at 2 copies."""
    rng = np.random.default_rng(11)
    base = state_with_spectrum(rng, SystemShape.of(("A", 2), ("B", 2)), [0.6, 0.3, 0.1, 0.0])
    rho = DensityMatrix(base.shape, base.mat * (1.0 + excess))
    shape = SystemShape(tuple(Party(p.label, p.dims * copies) for p in rho.shape.parties))
    subspace = LocalSubspace.from_indices(shape, {"A": (0, 3), "B": (0, 3)})

    def accepted(build) -> bool:
        try:
            build()
        except InvariantViolation as exc:
            assert exc.invariant == "trace"
            return False
        return True

    dense = accepted(lambda: DensityMatrix(shape, kron_permute_reference(rho, copies)))
    assert accepted(lambda: tensor_power(rho, copies)) == dense
    assert accepted(lambda: project(rho, subspace, copies=copies)) == dense
    assert dense == (excess * copies < 1e-9)


def test_stored_states_are_exactly_hermitian():
    """Derived states are stored with no hermiticity check, and
    ``_power_checks`` relies on every stored ``mat`` equalling its conjugate
    transpose exactly: tensor powers, protocol branches, projections onto
    rotated subspaces, filters, unitaries, pure states and reduced states."""
    rng = np.random.default_rng(3)
    stored = [tensor_power(random_density(rng, shape, rank=3), copies) for shape, copies in POWER_CASES]
    two = tensor_power(three_qubit_example(0.5), 2)
    stored += [branch.state for branch in run(ghz_distillation_steps(two.shape), two).branches]
    for shape in SHAPES:
        rho = random_density(rng, shape, rank=2)
        sub = LocalSubspace(tuple((p.label, random_unitary(rng, p.dim)[:, :2]) for p in shape.parties))
        op = ProductOperator.from_parts(
            shape, {p.label: random_invertible_contraction(rng, p.dim) for p in shape.parties}
        )
        rotate = LocalUnitary({p.label: random_unitary(rng, p.dim) for p in shape.parties})
        psi = PureState(shape, random_pure_vector(rng, shape.total_dim)).to_density()
        stored += [project(rho, sub).state, apply(op, rho)[0], run([rotate], rho).branches[0].state, psi]
        stored += [psi.reduced(shape.labels[:1]), rho.reduced(shape.labels[1:])]
    for state in stored:
        assert np.array_equal(state.mat, np.conj(state.mat).T)


#: Shapes of side 2 to 64 for the stored-spectrum examples.
SPECTRUM_SHAPES = [
    SystemShape.of(("A", 2)),
    SystemShape.of(("A", 2), ("B", 3)),
    SystemShape.of(("A", 2), ("B", 2), ("C", 2)),
    SystemShape.of(("A", 3), ("B", 5)),
    SystemShape.of(("A", 4), ("B", 8)),
    SystemShape.of(("A", 8), ("B", 8)),
]


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from(SPECTRUM_SHAPES), st.integers(1, 4))
def test_stored_spectrum_is_bit_equal_to_eigvalsh(seed, shape, rank):
    """The public constructor stores the eigenvalues its check computed, in
    one stacked call; a derived state computes them on first use.  Either
    way they are the bytes of a fresh ``eigvalsh`` of the stored matrix,
    which the power checks and ranks read in its place."""
    rng = np.random.default_rng(seed)
    rho = random_density(rng, shape, rank=rank)
    doc = json.loads(json.dumps(fileio.save_state(rho)))
    vectors = [random_pure_vector(rng, shape.total_dim) for _ in range(2)]
    checked = [rho, DensityMatrix(shape, rho.mat.copy()), fileio.load_state(doc)]
    checked.append(DensityMatrix.mixture(shape, [(0.25, vectors[0]), (0.75, vectors[1])]))
    sub = LocalSubspace(tuple((p.label, random_unitary(rng, p.dim)[:, : max(1, p.dim - 1)]) for p in shape.parties))
    derived = [
        DensityMatrix._derived(shape, states._hermitian_part(rho.mat @ rho.mat)),
        PureState(shape, vectors[0]).to_density(),
        project(rho, sub).state,
        rho.reduced(shape.labels[:1]),
    ]
    if shape.total_dim <= 8:
        derived.append(tensor_power(rho, 2))
    for state in checked + derived:
        assert state._spectrum.tobytes() == np.linalg.eigvalsh(state.mat).tobytes()
        assert not state._spectrum.flags.writeable
    assert states._power_spectrum(rho, 2) is states._power_spectrum(rho, 2)


# ---------------------------------------------------------------------------
# Searches of a tensor power, handed the single copy and the copy count
# ---------------------------------------------------------------------------

#: (shape, copies) pairs up to side 64.  Unpruned searches run only up to
#: 225 candidates, and the 3375-candidate case only on mixed states, so no
#: example classifies thousands of candidates.
SEARCH_POWER_CASES = [
    (SystemShape.of(("A", 2), ("B", 2)), 1),
    (SystemShape.of(("A", 2), ("B", 3)), 1),
    (SystemShape.of(("A", 2), ("B", 2), ("C", 2)), 1),
    (SystemShape.of(("A", 2), ("B", 2)), 2),
    (SystemShape.of(("A", 2), ("B", 2), ("C", 2)), 2),
]


@st.composite
def search_power_instances(draw):
    """``(state, copies, bases, prune)``: a state of rank 1 to 3 with a
    planted spectrum, its copy count, random bases of the power's parties
    in half the examples, and whether the search prunes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape, copies = SEARCH_POWER_CASES[draw(st.integers(0, len(SEARCH_POWER_CASES) - 1))]
    large = int(np.prod([2 ** (d**copies) - 1 for d in shape.dims])) > 225
    weights = np.zeros(shape.total_dim)
    rank = draw(st.integers(2 if large else 1, 3))
    weights[:rank] = rng.dirichlet(np.ones(rank))
    rho = state_with_spectrum(rng, shape, weights)
    bases = None
    if draw(st.booleans()):
        bases = {p.label: random_unitary(rng, p.dim) for p in states._power_shape(rho, copies).parties}
    prune = large or draw(st.booleans())
    return rho, copies, bases, prune


def search_record(certs) -> list:
    """Each certificate's summary with its exact weight and projected matrix."""
    return [(certificate_summary(c), c.outcome.weight, c.outcome.state.mat.tobytes()) for c in certs]


@PROPERTY_SETTINGS
@given(search_power_instances(), st.booleans())
def test_search_of_copies_equals_search_of_the_built_power(instance, require_entangled):
    rho, copies, bases, prune = instance
    options = {"require_entangled": require_entangled, "prune": prune}
    got = find_dss(rho, bases, copies=copies, **options)
    want = find_dss(tensor_power(rho, copies), bases, **options)
    assert search_record(got) == search_record(want)


def purifying_record(found) -> list:
    """Each found subspace's indices, exact weight, projected matrix and
    concurrences."""
    return [
        (f.subspace.basis_indices, f.outcome.weight, f.outcome.state.mat.tobytes(),
         f.measure_before, f.measure_after)
        for f in found
    ]


@PROPERTY_SETTINGS
@given(st.floats(0.3, 1.0), st.booleans())
def test_purifying_search_of_copies_equals_search_of_the_built_power(F, rotated):
    rho = werner(F)
    rng = np.random.default_rng(int(F * 1e6))
    bases = {label: random_unitary(rng, 4) for label in "AB"} if rotated else None
    got = find_purifying_subspaces(rho, bases, copies=2)
    want = find_purifying_subspaces(tensor_power(rho, 2), bases, reference=rho)
    assert purifying_record(got) == purifying_record(want)


# ---------------------------------------------------------------------------
# Kernels of the local operations
# ---------------------------------------------------------------------------

KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def kron_factors(draw):
    """One to four random complex factors, each 1 to 4 rows by 1 to 4 columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4))
    return [rng.normal(size=side) + 1j * rng.normal(size=side) for side in sides]


@KERNEL_SETTINGS
@given(kron_factors())
def test_kron_all_is_chained_np_kron(factors):
    assert np.array_equal(kron_all(factors), functools.reduce(np.kron, factors))


#: Shapes whose parties hold one to three subsystems.
MEASURE_SHAPES = [
    SystemShape.of(("A", (2, 3)), ("B", 2)),
    SystemShape.of(("A", 2), ("B", (3, 2))),
    SystemShape.of(("A", (2, 2)), ("B", (2, 2))),
    SystemShape.of(("A", 2), ("B", (2, 2, 2)), ("C", 3)),
]


@st.composite
def measure_instances(draw):
    """A random low-rank state and whether to measure in random unitary bases."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = MEASURE_SHAPES[draw(st.integers(0, len(MEASURE_SHAPES) - 1))]
    return rng, random_density(rng, shape, rank=draw(st.integers(1, 3))), draw(st.booleans())


def padded_post_selection(rho: DensityMatrix, party: int, subsystem: int, bra: np.ndarray):
    """``(I (x) <b| (x) I) rho (...)†``, the padded operator built by plain
    kron over every party and subsystem, and its trace."""
    mats = []
    for i, p in enumerate(rho.shape.parties):
        for j, d in enumerate(p.dims):
            mats.append(bra.reshape(1, -1) if (i, j) == (party, subsystem) else np.eye(d))
    m = functools.reduce(np.kron, mats)
    out = m @ rho.mat @ np.conj(m).T
    return out, float(np.real(np.trace(out)))


@KERNEL_SETTINGS
@given(measure_instances())
def test_sliced_measurement_matches_padded_post_selection(instance):
    rng, rho, rotate = instance
    for pi, party in enumerate(rho.shape.parties):
        for sub, d in enumerate(party.dims):
            basis = random_unitary(rng, d) if rotate else None
            result = run([MeasureAndDiscard(party.label, sub, basis)], rho)
            assert [b.outcomes for b in result.branches] == [(o,) for o in range(d)]
            for outcome, branch in enumerate(result.branches):
                bra = np.conj((np.eye(d) if basis is None else basis)[:, outcome])
                out, weight = padded_post_selection(rho, pi, sub, bra)
                expected = DensityMatrix(branch.state.shape, out / weight)
                if basis is None:
                    assert branch.probability == weight
                    assert np.array_equal(branch.state.mat, expected.mat)
                else:
                    assert abs(branch.probability - weight) <= 1e-12
                    assert np.max(np.abs(branch.state.mat - expected.mat)) <= 1e-12


AB = SystemShape.qubits("AB")


@st.composite
def two_qubit_stacks(draw):
    """One to twelve two-qubit states, each tagged with its kind: random of
    rank 1 to 4 (below 4 the kernel clips roundoff eigenvalues), pure
    product (C = 0), Bell (C = 1), and Werner below and above F = 1/2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "product", "bell", "werner-low", "werner-high"]),
                          min_size=1, max_size=12))
    stack = []
    for kind in kinds:
        if kind == "random":
            rho = random_density(rng, AB, rank=int(rng.integers(1, 5)))
        elif kind == "product":
            rho = PureState(AB, np.kron(random_pure_vector(rng, 2), random_pure_vector(rng, 2))).to_density()
        elif kind == "bell":
            rho = bell_state(["phi+", "phi-", "psi+", "psi-"][int(rng.integers(4))]).to_density()
        else:
            rho = werner(rng.uniform(0.0, 0.5) if kind == "werner-low" else rng.uniform(0.5, 1.0))
        stack.append((kind, rho))
    return stack


def reference_concurrence(rho: DensityMatrix) -> float:
    """Wootters' formula on one state, written out: the singular values of
    sqrt(rho) (Y x Y) sqrt(rho)*, with the eigenvalues of rho descending."""
    evals, evecs = np.linalg.eigh(rho.mat)
    evals, evecs = evals[::-1].copy(), evecs[:, ::-1].copy()
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ np.conj(evecs).T
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    lam = np.linalg.svd(root @ kron_all((y, y)) @ np.conj(root), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


@KERNEL_SETTINGS
@given(two_qubit_stacks())
def test_concurrence_stack_equals_concurrence_state_by_state(stack):
    got = _concurrence_stack(np.stack([rho.mat for _, rho in stack]))
    assert got.shape == (len(stack),)
    assert [float(c) for c in got] == [concurrence(rho) for _, rho in stack]
    assert [float(c) for c in got] == [reference_concurrence(rho) for _, rho in stack]
    for (kind, rho), c in zip(stack, got):
        if kind == "product":
            assert c <= 1e-7
        elif kind == "bell":
            assert abs(c - 1.0) <= 1e-9
        elif kind.startswith("werner"):
            assert abs(c - max(0.0, 2.0 * fidelity_with_pure(rho, bell_state("phi+")) - 1.0)) <= 1e-9


# ---------------------------------------------------------------------------
# The search context: the power read as it is, and the screen's contractions
# ---------------------------------------------------------------------------

#: (state, copies) of the presets; the flat search runs on all but the last.
CONTEXT_CASES = [
    (three_qubit_example(0.3), 2),
    (werner(0.9), 1),
    (werner(0.9), 2),
    (ghz_state().to_density(), 2),
    (w_state().to_density(), 2),
    (filter_example(0.4), 2),
    (werner(0.9), 3),
]
CONTEXT_IDS = ["example3q-0.3-x2", "werner-x1", "werner-x2", "ghz-x2", "w-x2", "filter-x2", "werner-x3"]


@pytest.mark.parametrize("rho,copies", CONTEXT_CASES, ids=CONTEXT_IDS)
def test_search_context_without_bases_reads_the_power_itself(rho, copies):
    ctx = _SearchContext(rho, copies, None, Tolerance(), subspaces.CANDIDATE_CAP)
    assert ctx.change is None
    assert ctx.local.tobytes() == tensor_power(rho, copies).mat.tobytes()


def stats_counts(search) -> dict:
    return {key: value for key, value in search.stats.items() if not key.endswith("_s")}


@pytest.mark.parametrize("require_entangled", [True, False])
@pytest.mark.parametrize("rho,copies", CONTEXT_CASES[:-1], ids=CONTEXT_IDS[:-1])
def test_search_without_bases_equals_identity_bases_and_the_flat_search(rho, copies, require_entangled):
    """No supplied basis reads the power itself; explicit identity bases
    multiply it by identities.  Both give the same records, in fields and
    weight bytes, and the same counts; the records are the flat search's."""
    identities = {p.label: np.eye(p.dim) for p in states._power_shape(rho, copies).parties}
    plain = search_dss(rho, copies=copies, require_entangled=require_entangled)
    explicit = search_dss(rho, identities, copies=copies, require_entangled=require_entangled)
    flat = find_dss(rho, copies=copies, prune=False, require_entangled=require_entangled)
    assert [record_fields(r) for r in plain.records] == [record_fields(r) for r in explicit.records]
    assert [record_fields(r) for r in plain.records] == [certificate_fields(c) for c in flat]
    assert stats_counts(plain) == stats_counts(explicit)


@st.composite
def contraction_instances(draw):
    """``(tensor, mats)``: a real or complex tensor of one to four leading
    axes and up to two trailing ones, and per leading axis a random matrix
    or a 0/1 indicator matrix, as the screen's ``members`` are."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    rest = draw(st.lists(st.integers(1, 6), max_size=2))
    tensor = rng.normal(size=lead + rest)
    if draw(st.booleans()):
        tensor = tensor + 1j * rng.normal(size=tensor.shape)
    mats = []
    for d in lead:
        rows = int(rng.integers(1, 9))
        indicator = draw(st.booleans())
        mats.append((rng.random((rows, d)) < 0.5).astype(float) if indicator else rng.normal(size=(rows, d)))
    return tensor, mats


@KERNEL_SETTINGS
@given(contraction_instances())
def test_contract_matches_the_tensordot_chain(instance):
    """Equal to roundoff: within 1e-14 of the same contraction of absolute
    values, the scale of the rounding error of any summation order."""
    tensor, mats = instance
    got = subspaces._contract(tensor, mats)
    want = contract_reference(tensor, mats)
    assert got.shape == want.shape
    scale = contract_reference(np.abs(tensor), [np.abs(m) for m in mats])
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def assert_screen_decisions_match_the_tensordot_screen(rho, copies, bases, require_entangled):
    """The screen's positions and counts, its contractions run as matrix
    products, equal those of the same screen run on the tensordot chain.
    Returns the counts."""
    ctx = _SearchContext(rho, copies, bases, Tolerance(), subspaces.CANDIDATE_CAP)
    positions, counts = ctx.screen(require_entangled)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subspaces, "_contract", contract_reference)
        want_positions, want_counts = ctx.screen(require_entangled)
    assert np.array_equal(positions, want_positions)
    assert counts == want_counts
    return counts


@PROPERTY_SETTINGS
@given(
    st.one_of(
        search_instances().map(lambda instance: (instance[0], 1, instance[1])),
        padded_instances().map(lambda instance: (instance[0], 1, instance[1])),
        search_power_instances().map(lambda instance: instance[:3]),
    ),
    st.booleans(),
)
def test_screen_decisions_match_the_tensordot_screen(instance, require_entangled):
    assert_screen_decisions_match_the_tensordot_screen(*instance, require_entangled)


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("rho,copies", [(three_qubit_example(0.5), 2), (werner(0.9), 2), (werner(0.9), 3)],
                         ids=["example3q-0.5-x2", "werner-x2", "werner-x3"])
def test_screen_decisions_of_the_workload_searches_match_the_tensordot_screen(rho, copies, rotated):
    rng = np.random.default_rng(29)
    shape = states._power_shape(rho, copies)
    bases = {p.label: random_unitary(rng, p.dim) for p in shape.parties} if rotated else None
    for require_entangled in (True, False):
        counts = assert_screen_decisions_match_the_tensordot_screen(rho, copies, bases, require_entangled)
        if copies == 2 and len(shape.parties) == 3 and not rotated and require_entangled:
            assert (counts.zero, counts.mixed, counts.product) == (1167, 1229, 955)
