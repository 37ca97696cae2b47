"""Property tests of the subspace search on random low-rank and planted states.

Each example draws a seed and builds a state on two or three parties: a
random low-rank state, or a planted instance hiding a pure entangled state
on a basis-aligned subspace.  Half the examples rotate the state by random
local unitaries and search in the rotated bases, where the planted
subspace is again basis-aligned.
"""

import logging

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dsskit import (
    DensityMatrix,
    SystemShape,
    find_dss,
    iter_candidates,
    tensor_power,
    three_qubit_example,
    werner,
)
from dsskit import subspaces
from dsskit.linalg import ZERO_WEIGHT, Tolerance, kron_all
from dsskit.subspaces import _SearchContext

from helpers import certificate_summary, planted_instance, random_density, random_unitary

SHAPES = [
    SystemShape.of(("A", 2), ("B", 2), ("C", 2)),
    SystemShape.of(("A", 3), ("B", 3)),
    SystemShape.of(("A", 2), ("B", 3)),
    SystemShape.of(("A", 2), ("B", 2)),
]

PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)


@st.composite
def search_instances(draw):
    """``(state, bases, planted)``; ``planted`` is None for low-rank states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
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


def old_screen_keeps(ctx, indices) -> bool:
    """The per-candidate zero/mixed test: one SVD of the restricted ensemble."""
    restricted = ctx.restricted(indices)
    weight = float(np.sum(np.abs(restricted) ** 2))
    if weight <= ZERO_WEIGHT * 0.1:
        return False
    s = np.linalg.svd(restricted, compute_uv=False)
    return float(np.sum(s[1:] ** 2)) <= 10.0 * ctx.tol.purity_atol * weight


@PROPERTY_SETTINGS
@given(search_instances(), st.sampled_from([1, 5, subspaces.SCREEN_CHUNK]))
def test_batched_screen_keeps_what_the_per_candidate_test_keeps(instance, chunk):
    state, bases, _ = instance
    ctx = _SearchContext(state, bases, Tolerance())
    positions, counts = ctx.screen(require_entangled=False, chunk=chunk)
    kept = [ctx.candidate(pos) for pos in positions]
    expected = [c for c in iter_candidates(state.shape) if old_screen_keeps(ctx, c)]
    assert kept == expected
    assert counts.product == 0
    assert counts.zero + counts.mixed + len(kept) == subspaces.candidate_count(state.shape)


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


def logged_stats(caplog, *args, **kwargs):
    with caplog.at_level(logging.DEBUG, logger="dsskit"):
        certs = find_dss(*args, **kwargs)
    (record,) = [r for r in caplog.records if hasattr(r, "search_stats")]
    caplog.clear()
    return certs, record.search_stats


def test_search_stats_logged(caplog):
    two = tensor_power(three_qubit_example(0.5), 2)
    certs, stats = logged_stats(caplog, two)
    assert stats["candidates"] == 3375
    assert stats["classified"] == stats["certificates"] == len(certs) == 24
    screened = stats["screened_zero"] + stats["screened_mixed"] + stats["screened_product"]
    assert screened + stats["classified"] == 3375
    assert stats["screened_product"] > 0

    two = tensor_power(werner(0.9), 2)
    _, flat = logged_stats(caplog, two, require_entangled=False, prune=False)
    assert flat["classified"] == flat["candidates"] == 225
    assert flat["screened_zero"] == flat["screened_mixed"] == flat["screened_product"] == 0
