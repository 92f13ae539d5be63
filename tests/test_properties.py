"""Cross-cutting property-based tests on model-level invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CPRModel
from repro.core.completion import (
    complete_als,
    complete_als_adaptive,
    complete_als_regularized,
    complete_amn,
)
from repro.core.grid import LogMode, TensorGrid, UniformMode
from repro.core.tensor import ObservedTensor

# Both kernel backends — the metamorphic invariants below hold per backend.
KERNELS = ["reference", "numpy_batched"]


def _make_data(seed, n=400):
    gen = np.random.default_rng(seed)
    X = np.exp(gen.uniform(0.0, np.log(64.0), size=(n, 2)))
    y = 1e-3 * X[:, 0] ** 1.2 * X[:, 1] ** 0.7 * np.exp(
        gen.normal(0, 0.02, size=n)
    )
    return X, y


class TestModelInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_sample_order_invariance(self, seed):
        """Fitting on a permutation of the data gives the same model."""
        X, y = _make_data(seed)
        gen = np.random.default_rng(seed + 1)
        perm = gen.permutation(len(y))
        a = CPRModel(cells=6, rank=2, seed=0).fit(X, y)
        b = CPRModel(cells=6, rank=2, seed=0).fit(X[perm], y[perm])
        np.testing.assert_allclose(a.predict(X[:30]), b.predict(X[:30]), rtol=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 100),
        scale=st.floats(1e-3, 1e3),
    )
    def test_time_unit_equivariance(self, seed, scale):
        """Rescaling execution times rescales predictions exactly.

        The log_mse model absorbs a global factor into its offset, so
        predictions must scale linearly with the unit of time (seconds vs
        milliseconds must not change model quality).
        """
        X, y = _make_data(seed)
        a = CPRModel(cells=6, rank=2, seed=0).fit(X, y)
        b = CPRModel(cells=6, rank=2, seed=0).fit(X, y * scale)
        np.testing.assert_allclose(
            b.predict(X[:30]), scale * a.predict(X[:30]), rtol=1e-7
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_predictions_always_positive_finite(self, seed):
        X, y = _make_data(seed)
        m = CPRModel(cells=6, rank=2, seed=seed).fit(X, y)
        gen = np.random.default_rng(seed)
        Xq = np.exp(gen.uniform(0.0, np.log(64.0), size=(100, 2)))
        pred = m.predict(Xq)
        assert np.all(pred > 0) and np.all(np.isfinite(pred))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_mlogq2_model_positive_everywhere(self, seed):
        X, y = _make_data(seed)
        m = CPRModel(cells=5, rank=2, loss="mlogq2", max_sweeps=1,
                     newton_iters=6, seed=seed).fit(X, y)
        gen = np.random.default_rng(seed)
        # include out-of-domain queries (extrapolation path)
        Xq = np.exp(gen.uniform(0.0, np.log(512.0), size=(60, 2)))
        pred = m.predict(Xq)
        assert np.all(pred > 0) and np.all(np.isfinite(pred))


def _observations(seed, d=3, positive=False):
    """A seeded random completion problem with repeated cells."""
    gen = np.random.default_rng(seed)
    shape = tuple(gen.integers(4, 8, size=d))
    nnz = 40 * d
    idx = np.stack([gen.integers(0, I, nnz) for I in shape], axis=1)
    vals = gen.normal(0.5, 0.4, nnz)
    if positive:
        vals = np.exp(vals)
    return shape, np.ascontiguousarray(idx), vals


class TestCompletionInvariants:
    """Seeded metamorphic invariants of the ALS/AMN fits, per kernel."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_als_observation_permutation_invariance(self, kernel, seed):
        """Fitting a permutation of the observations gives the same factors.

        The batched kernel re-sorts per mode and the reference kernel
        loops rows in index order, so the only permutation sensitivity
        left is float summation order within a cell's segment — bounded
        far below the asserted tolerance.
        """
        shape, idx, vals = _observations(seed)
        perm = np.random.default_rng(seed + 1).permutation(len(vals))
        kw = dict(rank=2, regularization=1e-5, max_sweeps=4, tol=0.0,
                  seed=0, kernel=kernel)
        a = complete_als(shape, idx, vals, **kw)
        b = complete_als(shape, idx[perm], vals[perm], **kw)
        for U, V in zip(a.factors, b.factors):
            np.testing.assert_allclose(V, U, rtol=0,
                                       atol=1e-7 * np.abs(U).max())

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_amn_observation_permutation_invariance(self, kernel, seed):
        shape, idx, vals = _observations(seed, positive=True)
        perm = np.random.default_rng(seed + 1).permutation(len(vals))
        kw = dict(rank=2, regularization=1e-5, max_sweeps=1, tol=1e-6,
                  seed=0, newton_iters=4, barrier_min=1e-1, kernel=kernel)
        a = complete_amn(shape, idx, vals, **kw)
        b = complete_amn(shape, idx[perm], vals[perm], **kw)
        for U, V in zip(a.factors, b.factors):
            np.testing.assert_allclose(V, U, rtol=0,
                                       atol=1e-7 * np.abs(U).max())

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("loss", ["log_mse", "mlogq2"])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 200), scale=st.floats(1e-2, 1e2))
    def test_target_scale_equivariance_per_kernel(
        self, kernel, loss, seed, scale
    ):
        """Rescaling the targets rescales predictions linearly, per kernel.

        Both models absorb a global factor into ``offset_`` (the mean
        log-time), leaving the factor optimization identical — so this
        holds for the positive AMN model too, not just log-MSE/ALS.
        """
        X, y = _make_data(seed, n=250)
        kw = dict(cells=5, rank=2, seed=0, loss=loss, kernel=kernel)
        if loss == "mlogq2":
            kw.update(max_sweeps=1, newton_iters=5, barrier_min=1e-1)
        a = CPRModel(**kw).fit(X, y)
        b = CPRModel(**kw).fit(X, y * scale)
        np.testing.assert_allclose(
            b.predict(X[:30]), scale * a.predict(X[:30]), rtol=1e-7
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("loss", ["log_mse", "mlogq2"])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_partial_fit_zero_new_observations_idempotent(
        self, kernel, loss, seed
    ):
        """``partial_fit`` on an empty batch is an exact no-op, per kernel."""
        X, y = _make_data(seed, n=250)
        kw = dict(cells=5, rank=2, seed=0, loss=loss, kernel=kernel)
        if loss == "mlogq2":
            kw.update(max_sweeps=1, newton_iters=5, barrier_min=1e-1)
        m = CPRModel(**kw).fit(X, y)
        before = m.predict(X[:40]).copy()
        m.partial_fit(np.empty((0, 2)), np.empty(0))
        np.testing.assert_array_equal(m.predict(X[:40]), before)

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_partial_fit_duplicate_data_keeps_cell_means(self, kernel, seed):
        """Re-feeding the training set doubles counts but not cell means.

        The observed tensor is a counts-weighted sufficient statistic:
        duplicating the data must leave every cell mean (and hence the
        completion targets) bit-comparable, so the warm start continues
        from an unchanged objective.
        """
        X, y = _make_data(seed, n=250)
        m = CPRModel(cells=5, rank=2, seed=0, kernel=kernel).fit(X, y)
        values = m.tensor_.values.copy()
        counts = m.tensor_.counts.copy()
        m.partial_fit(X, y)
        np.testing.assert_allclose(m.tensor_.values, values, rtol=1e-12)
        np.testing.assert_array_equal(m.tensor_.counts, 2 * counts)


class TestRegularizedInvariants:
    """Seeded metamorphic invariants of the new regularized/adaptive
    kernels, per backend (same automatic-parametrization discipline as
    :class:`TestCompletionInvariants`)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_regularized_permutation_invariance(self, kernel, seed):
        """Column penalties don't break observation-order invariance."""
        shape, idx, vals = _observations(seed)
        perm = np.random.default_rng(seed + 1).permutation(len(vals))
        kw = dict(rank=2, regularization=1e-4, max_sweeps=4, tol=0.0,
                  seed=0, kernel=kernel, column_penalties="graded")
        a = complete_als_regularized(shape, idx, vals, **kw)
        b = complete_als_regularized(shape, idx[perm], vals[perm], **kw)
        for U, V in zip(a.factors, b.factors):
            np.testing.assert_allclose(V, U, rtol=0,
                                       atol=1e-7 * np.abs(U).max())

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_nonnegative_projection_holds(self, kernel, seed):
        """Projected ALS factors stay in the nonnegative orthant."""
        shape, idx, vals = _observations(seed, positive=True)
        res = complete_als_regularized(
            shape, idx, vals, rank=2, regularization=1e-4, max_sweeps=5,
            tol=0.0, seed=0, kernel=kernel, nonnegative=True,
        )
        assert all(np.all(U >= 0) for U in res.factors)
        assert np.isfinite(res.history[-1])

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_graded_penalty_shrinks_trailing_components(self, kernel, seed):
        """Heavier penalties shrink what they penalize: under a strongly
        graded ramp the trailing component's magnitude cannot exceed the
        flat-penalty fit's trailing component (norm-product metric)."""
        from repro.core.completion import cp_component_norms

        shape, idx, vals = _observations(seed)
        kw = dict(rank=3, regularization=1e-2, max_sweeps=8, tol=0.0,
                  seed=0, kernel=kernel)
        flat = complete_als_regularized(
            shape, idx, vals, column_penalties=np.ones(3), **kw
        )
        ramp = complete_als_regularized(
            shape, idx, vals, column_penalties=np.array([1.0, 1.0, 400.0]),
            **kw
        )
        flat_tail = cp_component_norms(flat.factors)[-1]
        ramp_tail = cp_component_norms(ramp.factors)[-1]
        assert ramp_tail <= flat_tail * (1 + 1e-9)

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_adaptive_rank_within_bounds(self, kernel, seed):
        """The landed rank respects [1, cap] and matches the factors."""
        shape, idx, vals = _observations(seed)
        res = complete_als_adaptive(
            shape, idx, vals, rank="auto", rank_init=2, max_rank=5,
            regularization=1e-5, max_sweeps=5, tol=0.0, seed=0, kernel=kernel,
        )
        landed = res.factors[0].shape[1]
        assert 1 <= landed <= 5
        assert res.rank_trajectory[-1] == landed
        assert all(U.shape[1] == landed for U in res.factors)

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_adaptive_degenerate_equals_fixed_als(self, kernel, seed):
        """rank_init == cap, no holdout, no pruning == plain ALS exactly."""
        shape, idx, vals = _observations(seed)
        kw = dict(regularization=1e-5, max_sweeps=4, tol=0.0, seed=0,
                  kernel=kernel)
        fixed = complete_als(shape, idx, vals, rank=2, **kw)
        auto = complete_als_adaptive(
            shape, idx, vals, rank=2, rank_init=2, val_fraction=0.0,
            prune_threshold=0.0, **kw,
        )
        for U, V in zip(fixed.factors, auto.factors):
            np.testing.assert_array_equal(U, V)


class TestTensorInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        cells=st.integers(2, 12),
        n=st.integers(1, 200),
    )
    def test_density_and_mass(self, seed, cells, n):
        gen = np.random.default_rng(seed)
        grid = TensorGrid([
            LogMode("a", 1.0, 100.0, cells),
            UniformMode("b", 0.0, 1.0, cells),
        ])
        X = np.column_stack([
            np.exp(gen.uniform(0, np.log(100.0), n)),
            gen.uniform(0, 1, n),
        ])
        y = np.exp(gen.normal(0, 1, n))
        t = ObservedTensor.from_data(grid, X, y)
        assert 0 < t.density <= 1
        assert t.nnz <= min(n, grid.n_elements)
        assert float(t.values @ t.counts) == pytest.approx(float(y.sum()))
        # every cell mean lies within the range of its contributors
        assert t.values.min() >= y.min() - 1e-12
        assert t.values.max() <= y.max() + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), split=st.floats(0.1, 0.9))
    def test_merge_associativity(self, seed, split):
        gen = np.random.default_rng(seed)
        grid = TensorGrid([
            UniformMode("a", 0.0, 1.0, 4),
            UniformMode("b", 0.0, 1.0, 4),
        ])
        n = 120
        X = gen.uniform(0, 1, size=(n, 2))
        y = np.exp(gen.normal(0, 1, n))
        k = max(1, min(n - 1, int(split * n)))
        t1 = ObservedTensor.from_data(grid, X[:k], y[:k])
        t2 = ObservedTensor.from_data(grid, X[k:], y[k:])
        full = ObservedTensor.from_data(grid, X, y)
        merged = t1.merge(t2)
        np.testing.assert_allclose(
            merged.dense(fill=0.0), full.dense(fill=0.0), rtol=1e-10
        )
