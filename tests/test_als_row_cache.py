"""Coherence of the ``numpy_batched`` ALS row cache and Khatri-Rao prefix.

The ``numpy_batched`` ALS fit context caches every factor's gathered rows
for the whole fit, keeps a running product of the leading modes' rows,
and writes each mode's design rows into that mode's workspace, where the
solve reads them.  A stale row or prefix (a factor written without the
context being told) would still give a plausible fit, so this suite
checks the cache directly: at every mode of every sweep, the design rows
in the workspace must be bitwise equal to a fresh ``khatri_rao_rows``
gather in mode-sorted order, and every objective evaluation must equal a
fresh ``cp_eval``.  The paths covered are the ones that write factors
outside ``als_update``: plain ALS (gauge rebalancing), warm starts with
plan reuse, regularized ALS with graded penalties and with the
nonnegative projection, the adaptive loop through a grow and a prune,
and a projection of an earlier mode in the middle of a sweep, which must
empty the prefix.
"""
import numpy as np
import pytest

from repro.core import CPRModel
from repro.core.completion import (
    complete_als,
    complete_als_adaptive,
    complete_als_regularized,
    init_factors,
    khatri_rao_rows,
)
from repro.core.completion.backends import _ALSRowCache, resolve_backend
from repro.core.completion.state import cp_eval


@pytest.fixture
def checked(monkeypatch):
    """Wrap the cache's reads so each one is compared to a fresh gather.

    Returns a dict counting the checked design-row and evaluate calls.
    """
    calls = {"design_rows": 0, "evaluate": 0}
    design_rows = _ALSRowCache.design_rows
    evaluate = _ALSRowCache.evaluate

    def checked_design_rows(self, factors, j):
        K = design_rows(self, factors, j)
        assert K is self.workspace(j).K  # what the mode's solve reads
        fresh = khatri_rao_rows(factors, self.indices, skip=j)
        np.testing.assert_array_equal(K, fresh[self.plan.mode(j).order])
        calls["design_rows"] += 1
        return K

    def checked_evaluate(self, factors):
        pred = evaluate(self, factors)
        np.testing.assert_array_equal(pred, cp_eval(factors, self.indices))
        calls["evaluate"] += 1
        return pred

    monkeypatch.setattr(_ALSRowCache, "design_rows", checked_design_rows)
    monkeypatch.setattr(_ALSRowCache, "evaluate", checked_evaluate)
    return calls


def _observations(shape, nnz, seed, center=2.0):
    rng = np.random.default_rng(seed)
    idx = np.stack([rng.integers(0, I, nnz) for I in shape], axis=1)
    # Scrub one row of mode 0 so an unobserved row stays in the factor.
    idx = idx[idx[:, 0] != shape[0] - 1]
    vals = rng.normal(size=len(idx)) * 0.5 + center
    return idx, vals


@pytest.mark.parametrize("shape", [(5, 4), (5, 4, 6, 3), (4, 3, 2, 3, 2, 4, 3, 2, 3)])
@pytest.mark.parametrize("scale_rows", [True, False])
def test_plain_als(checked, shape, scale_rows):
    idx, vals = _observations(shape, 80 * len(shape), seed=len(shape))
    res = complete_als(shape, idx, vals, rank=3, max_sweeps=5, tol=0.0,
                       seed=1, scale_rows=scale_rows, kernel="numpy_batched")
    assert res.n_sweeps == 5
    assert checked["design_rows"] == 5 * len(shape)
    assert checked["evaluate"] == 6


def test_warm_start_with_plan_reuse(checked):
    rng = np.random.default_rng(0)
    X = np.exp(rng.uniform(0.0, np.log(64.0), size=(300, 3)))
    y = 1e-3 * X[:, 0] ** 1.3 * X[:, 1] ** 0.6 / X[:, 2] ** 0.2
    model = CPRModel(cells=6, rank=3, seed=0, kernel="numpy_batched")
    model.fit(X, y)
    plan = model._plan_
    before = checked["design_rows"]
    model.partial_fit(X[:80], y[:80] * 1.05, max_sweeps=3)
    assert model._plan_ is plan  # same cells: the plan was reused
    assert checked["design_rows"] - before == 3 * X.shape[1]


@pytest.mark.parametrize("nonnegative", [False, True])
def test_regularized_graded_penalties(checked, nonnegative):
    shape = (6, 5, 4, 5)
    # Targets centred on zero: unconstrained solves go negative, so the
    # projection really writes the factors.
    idx, vals = _observations(shape, 400, seed=3, center=0.0)
    res = complete_als_regularized(
        shape, idx, vals, rank=3, regularization=1e-4, max_sweeps=5, tol=0.0,
        seed=2, column_penalties="graded", nonnegative=nonnegative,
        kernel="numpy_batched",
    )
    assert checked["design_rows"] == res.n_sweeps * len(shape)
    if nonnegative:
        assert any(np.any(U == 0.0) for U in res.factors)


def test_adaptive_grow_and_prune(checked):
    rng = np.random.default_rng(0)
    shape = (7, 6, 5, 6)
    truth = init_factors(shape, 3, rng=rng, noise=1.0)
    idx = np.stack([rng.integers(0, I, 500) for I in shape], axis=1)
    vals = cp_eval(truth, idx) + 0.01 * rng.normal(size=500)
    res = complete_als_adaptive(
        shape, idx, vals, rank="auto", rank_init=2, max_rank=6, grow_step=2,
        max_sweeps=8, seed=0, kernel="numpy_batched",
    )
    traj = res.rank_trajectory
    assert traj[1] > traj[0]  # grew
    assert traj[-1] < max(traj)  # then pruned
    assert checked["design_rows"] > 0


def test_mid_sweep_refresh_of_covered_mode_empties_prefix(checked):
    shape = (5, 4, 6, 3, 4, 5)
    idx, vals = _observations(shape, 400, seed=11, center=0.0)
    backend = resolve_backend("numpy_batched")
    ctx = backend.prepare_als(shape, idx, vals)
    factors = init_factors(shape, 3, rng=np.random.default_rng(4), noise=1.0)
    for j in range(4):
        backend.als_update(ctx, factors, j, 1e-4, True)
    assert ctx._covered == 3  # prefix holds rows[0] * rows[1] * rows[2]
    # Project an earlier mode onto the nonnegative orthant mid-sweep: its
    # cached rows change under the prefix, which must be rebuilt.
    assert np.any(factors[1] < 0)
    np.maximum(factors[1], 0.0, out=factors[1])
    ctx.refresh(factors, (1,))
    assert ctx._covered == 0
    # A refresh of a mode the prefix does not cover leaves it standing.
    backend.als_update(ctx, factors, 4, 1e-4, True)
    ctx.refresh(factors, (4,))
    assert ctx._covered == 4
    backend.als_update(ctx, factors, 5, 1e-4, True)
    # A new sweep asks for a shorter prefix, which empties it as well.
    for j in range(len(shape)):
        backend.als_update(ctx, factors, j, 1e-4, True)
    ctx.evaluate(factors)
    assert checked["design_rows"] == 6 + len(shape)
    assert checked["evaluate"] == 1
