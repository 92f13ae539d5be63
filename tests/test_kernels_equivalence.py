"""The ``numpy_batched`` kernel backend vs reference: exact-equivalence tests.

``numpy_batched`` (:mod:`repro.core.completion.backends`) must reproduce
the retained per-row ``reference`` backend to tight tolerance — same
sweeps, same histories, same factors — across tensor orders, ragged
observation multiplicities (including rows with *no* observations), warm
starts, and the streaming ``partial_fit`` path.  See DESIGN.md, "Kernel
backends".
"""
import numpy as np
import pytest

from repro.core.completion import (
    ObservationPlan,
    complete_als,
    complete_als_adaptive,
    complete_als_regularized,
    complete_amn,
    init_factors,
    init_positive_factors,
)
from repro.core.completion.als import als_update_mode

ORDERS = {
    2: (13, 7),
    3: (11, 6, 9),
    4: (8, 5, 7, 4),
    5: (6, 4, 5, 3, 4),
    # The high orders the paper's applications reach (6-9 parameters).
    6: (5, 3, 4, 3, 4, 3),
    9: (3, 4, 2, 3, 2, 3, 4, 2, 3),
}


# The backend compared against the per-row reference.
BACKENDS = ["numpy_batched"]


def _ragged_observations(shape, seed, positive=False):
    """Random observations with skewed multiplicities and unobserved rows.

    Half the draws are concentrated on low indices (heavily repeated
    rows), and the last row of mode 0 plus the middle row of the final
    mode are scrubbed entirely, so every plan has ragged segments *and*
    unobserved rows to leave untouched.
    """
    rng = np.random.default_rng(seed)
    nnz = 60 * len(shape)
    skew = np.stack(
        [rng.integers(0, max(I // 2, 1), nnz // 2) for I in shape], axis=1
    )
    unif = np.stack([rng.integers(0, I, nnz - nnz // 2) for I in shape], axis=1)
    idx = np.concatenate([skew, unif])
    keep = (idx[:, 0] != shape[0] - 1) & (idx[:, -1] != shape[-1] // 2)
    idx = idx[keep]
    vals = rng.normal(size=len(idx)) * 0.5 + 2.0
    if positive:
        vals = np.exp(vals * 0.4)
    return np.ascontiguousarray(idx), vals


def _assert_factors_close(a, b, rtol=1e-8):
    for j, (U, V) in enumerate(zip(a, b)):
        scale = max(float(np.abs(U).max()), 1e-30)
        np.testing.assert_allclose(
            V, U, rtol=0, atol=rtol * scale,
            err_msg=f"mode {j} factors diverge between kernels",
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("scale_rows", [True, False])
class TestALSEquivalence:
    def test_full_fit_matches(self, order, scale_rows, backend):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=order)
        kw = dict(rank=3, regularization=1e-5, max_sweeps=6, tol=0.0,
                  seed=7, scale_rows=scale_rows)
        ref = complete_als(shape, idx, vals, kernel="reference", **kw)
        bat = complete_als(shape, idx, vals, kernel=backend, **kw)
        _assert_factors_close(ref.factors, bat.factors)
        np.testing.assert_allclose(ref.history, bat.history, rtol=1e-9)
        assert ref.n_sweeps == bat.n_sweeps

    def test_single_mode_update_matches(self, order, scale_rows, backend):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=10 + order)
        for j in range(len(shape)):
            ref = init_factors(shape, 4, rng=np.random.default_rng(3))
            bat = [U.copy() for U in ref]
            als_update_mode(ref, idx, vals, j, 1e-4, scale_rows,
                            kernel="reference")
            als_update_mode(bat, idx, vals, j, 1e-4, scale_rows,
                            kernel=backend)
            _assert_factors_close(ref, bat)

    def test_warm_start_matches(self, order, scale_rows, backend):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=20 + order)
        kw = dict(rank=2, regularization=1e-5, tol=0.0, seed=1,
                  scale_rows=scale_rows)
        start = complete_als(shape, idx, vals, max_sweeps=3,
                             kernel="reference", **kw).factors
        ref = complete_als(shape, idx, vals, max_sweeps=3, kernel="reference",
                           factors=[U.copy() for U in start], **kw)
        bat = complete_als(shape, idx, vals, max_sweeps=3, kernel=backend,
                           factors=[U.copy() for U in start], **kw)
        _assert_factors_close(ref.factors, bat.factors)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("order", sorted(ORDERS))
class TestAMNEquivalence:
    def test_full_fit_matches(self, order, backend):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=order, positive=True)
        kw = dict(rank=2, regularization=1e-5, max_sweeps=2, tol=1e-6,
                  seed=5, newton_iters=8, barrier_min=1e-2)
        ref = complete_amn(shape, idx, vals, kernel="reference", **kw)
        bat = complete_amn(shape, idx, vals, kernel=backend, **kw)
        _assert_factors_close(ref.factors, bat.factors)
        np.testing.assert_allclose(ref.history, bat.history, rtol=1e-8)
        assert all(np.all(U > 0) for U in bat.factors)

    def test_warm_start_matches(self, order, backend):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=30 + order, positive=True)
        start = init_positive_factors(shape, 2, rng=np.random.default_rng(9),
                                      mean=float(np.mean(vals)))
        kw = dict(rank=2, regularization=1e-5, max_sweeps=1, tol=1e-6,
                  seed=0, newton_iters=6, barrier_min=1e-1)
        ref = complete_amn(shape, idx, vals, kernel="reference",
                           factors=[U.copy() for U in start], **kw)
        bat = complete_amn(shape, idx, vals, kernel=backend,
                           factors=[U.copy() for U in start], **kw)
        _assert_factors_close(ref.factors, bat.factors)

    def test_unobserved_rows_untouched(self, order, backend):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=40 + order, positive=True)
        start = init_positive_factors(shape, 2, rng=np.random.default_rng(11),
                                      mean=float(np.mean(vals)))
        frozen = start[0][shape[0] - 1].copy()
        res = complete_amn(shape, idx, vals, rank=2, max_sweeps=1,
                           newton_iters=4, barrier_min=1e-1, seed=0,
                           kernel=backend,
                           factors=[U.copy() for U in start])
        np.testing.assert_array_equal(res.factors[0][shape[0] - 1], frozen)


class TestSkewFallback:
    """Extreme multiplicity skew must dispatch off the padded path."""

    def _skewed_problem(self, positive=False):
        # One row of mode 0 owns almost every observation: padding would
        # cost n_obs * max_count >> nnz, so pad_feasible must trip.
        rng = np.random.default_rng(0)
        shape = (40, 6, 5)
        nnz = 12000
        idx = np.stack(
            [
                np.where(rng.random(nnz) < 0.97, 3, rng.integers(0, 40, nnz)),
                rng.integers(0, 6, nnz),
                rng.integers(0, 5, nnz),
            ],
            axis=1,
        ).astype(np.intp)
        vals = rng.normal(size=nnz) * 0.3 + 2.0
        if positive:
            vals = np.exp(vals * 0.4)
        return shape, idx, vals

    def test_pad_infeasible_detected(self):
        shape, idx, _ = self._skewed_problem()
        plan = ObservationPlan(shape, idx)
        assert not plan.mode(0).pad_feasible
        assert plan.mode(1).pad_feasible

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_als_skewed_matches_reference(self, backend):
        shape, idx, vals = self._skewed_problem()
        kw = dict(rank=3, regularization=1e-5, max_sweeps=5, tol=0.0, seed=2)
        ref = complete_als(shape, idx, vals, kernel="reference", **kw)
        bat = complete_als(shape, idx, vals, kernel=backend, **kw)
        _assert_factors_close(ref.factors, bat.factors)

    def test_tucker_skewed_fits(self):
        from repro.core.completion.tucker import complete_tucker

        shape, idx, vals = self._skewed_problem()
        res = complete_tucker(shape, idx, vals, rank=2, max_sweeps=4, seed=0)
        assert np.isfinite(res.history[-1])
        assert res.history[-1] <= res.history[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_amn_skewed_matches_reference(self, backend):
        shape, idx, vals = self._skewed_problem(positive=True)
        kw = dict(rank=2, regularization=1e-5, max_sweeps=1, tol=1e-6,
                  seed=2, newton_iters=6, barrier_min=1e-1)
        ref = complete_amn(shape, idx, vals, kernel="reference", **kw)
        bat = complete_amn(shape, idx, vals, kernel=backend, **kw)
        _assert_factors_close(ref.factors, bat.factors)


@pytest.mark.parametrize("backend", BACKENDS)
class TestPartialFitEquivalence:
    """The streaming warm-start path must agree across backends.

    ``partial_fit`` merges new measurements into the observed tensor and
    runs a few warm-start sweeps from the current factors; plan-reuse
    backends additionally reuse (or, when the observed index set
    changed, rebuild) the fit-wide observation plan.  Every backend must
    agree with the per-row reference to 1e-8 after the update, including
    new rows with ragged multiplicities and observations clipped into
    the grid's boundary cells — this is the per-backend coverage of the
    stream trainer's warm-start refits.
    """

    def _data(self, seed, n=300, lo=1.0, hi=64.0):
        gen = np.random.default_rng(seed)
        X = np.exp(gen.uniform(np.log(lo), np.log(hi), size=(n, 2)))
        y = 1e-3 * X[:, 0] ** 1.3 * X[:, 1] ** 0.6 * np.exp(
            gen.normal(0, 0.05, size=n)
        )
        return X, y

    def _pair(self, loss, backend):
        from repro.core import CPRModel

        kw = dict(cells=6, rank=2, seed=0, loss=loss)
        if loss == "mlogq2":
            kw.update(max_sweeps=1, newton_iters=6, barrier_min=1e-1)
        return (
            CPRModel(kernel="reference", **kw),
            CPRModel(kernel=backend, **kw),
        )

    @pytest.mark.parametrize("loss", ["log_mse", "mlogq2"])
    def test_partial_fit_known_cells_matches(self, loss, backend):
        """New observations inside observed cells (plan reused verbatim)."""
        X, y = self._data(seed=0)
        ref, bat = self._pair(loss, backend)
        ref.fit(X, y)
        bat.fit(X, y)
        plan_before = bat._plan_
        # Jittered re-measurements of seen configurations: same cells.
        gen = np.random.default_rng(1)
        Xn, yn = X[:80], y[:80] * np.exp(gen.normal(0, 0.02, 80))
        ref.partial_fit(Xn, yn, max_sweeps=3)
        bat.partial_fit(Xn, yn, max_sweeps=3)
        # Unchanged cells: the fit-wide plan's buffers are reused.
        assert bat._plan_ is plan_before
        _assert_factors_close(ref._factor_list(), bat._factor_list())
        q = self._data(seed=9, n=64)[0]
        np.testing.assert_allclose(bat.predict(q), ref.predict(q), rtol=1e-8)

    @pytest.mark.parametrize("loss", ["log_mse", "mlogq2"])
    def test_partial_fit_ragged_new_rows_matches(self, loss, backend):
        """New observations opening new cells/fibers, with heavy skew."""
        X, y = self._data(seed=2, lo=1.0, hi=8.0)  # initial: low corner only
        ref, bat = self._pair(loss, backend)
        # Widen the grid over the full range up front (the streaming
        # trainer's refit handles widening; partial_fit's contract is a
        # fixed grid), then feed updates concentrated on unseen rows.
        Xw, yw = self._data(seed=3, n=40, lo=1.0, hi=64.0)
        ref.fit(np.vstack([X, Xw]), np.concatenate([y, yw]))
        bat.fit(np.vstack([X, Xw]), np.concatenate([y, yw]))
        gen = np.random.default_rng(4)
        # Ragged multiplicities: one repeated configuration dominates.
        Xn, yn = self._data(seed=5, n=120, lo=32.0, hi=64.0)
        Xn[:60] = Xn[0]
        yn[:60] = yn[0] * np.exp(gen.normal(0, 0.01, 60))
        plan_before = bat._plan_
        ref.partial_fit(Xn, yn, max_sweeps=3)
        bat.partial_fit(Xn, yn, max_sweeps=3)
        assert bat._plan_ is not plan_before  # new cells: invalidated
        _assert_factors_close(ref._factor_list(), bat._factor_list())

    @pytest.mark.parametrize("loss", ["log_mse", "mlogq2"])
    def test_partial_fit_grid_boundary_cells_match(self, loss, backend):
        """Out-of-range updates clip into edge cells identically."""
        X, y = self._data(seed=6)
        ref, bat = self._pair(loss, backend)
        ref.fit(X, y)
        bat.fit(X, y)
        # Beyond both domain edges: clipped into the first/last cells.
        Xn = np.array([[0.1, 0.1], [500.0, 500.0], [0.05, 300.0]] * 5)
        yn = np.geomspace(1e-4, 1e-2, len(Xn))
        ref.partial_fit(Xn, yn, max_sweeps=2)
        bat.partial_fit(Xn, yn, max_sweeps=2)
        _assert_factors_close(ref._factor_list(), bat._factor_list())
        edge = np.array([[X[:, 0].min(), X[:, 1].max()]])
        np.testing.assert_allclose(
            bat.predict(edge), ref.predict(edge), rtol=1e-8
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("order", [2, 3, 4])
class TestRegularizedEquivalence:
    """Column-penalty / nonnegative ALS must agree across backends.

    The vector-``lam`` diagonal and the projection step are threaded
    through ``als_update`` exactly like the scalar path, so
    ``numpy_batched`` owes the same 1e-8 contract the plain ALS suite
    enforces.
    """

    @pytest.mark.parametrize("penalties", ["graded", None])
    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_full_fit_matches(self, order, backend, penalties, nonnegative):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=50 + order)
        kw = dict(rank=3, regularization=1e-4, max_sweeps=6, tol=0.0,
                  seed=7, column_penalties=penalties, nonnegative=nonnegative)
        ref = complete_als_regularized(shape, idx, vals, kernel="reference",
                                       **kw)
        bat = complete_als_regularized(shape, idx, vals, kernel=backend, **kw)
        _assert_factors_close(ref.factors, bat.factors)
        np.testing.assert_allclose(ref.history, bat.history, rtol=1e-9)
        assert ref.n_sweeps == bat.n_sweeps
        if nonnegative:
            assert all(np.all(U >= 0) for U in bat.factors)

    def test_explicit_penalty_vector_matches(self, order, backend):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=60 + order)
        w = np.array([1.0, 5.0, 25.0])
        kw = dict(rank=3, regularization=1e-4, max_sweeps=4, tol=0.0, seed=3,
                  column_penalties=w)
        ref = complete_als_regularized(shape, idx, vals, kernel="reference",
                                       **kw)
        bat = complete_als_regularized(shape, idx, vals, kernel=backend, **kw)
        _assert_factors_close(ref.factors, bat.factors)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("order", [2, 3, 4])
class TestAdaptiveEquivalence:
    """The grow/prune loop must be a pure function of (problem, seed,
    backend-exact numerics): same trajectory, same factors everywhere."""

    def test_adaptive_matches_reference(self, order, backend):
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=70 + order)
        kw = dict(rank="auto", rank_init=2, max_rank=6, grow_step=2,
                  regularization=1e-5, max_sweeps=6, tol=0.0, seed=11)
        ref = complete_als_adaptive(shape, idx, vals, kernel="reference", **kw)
        bat = complete_als_adaptive(shape, idx, vals, kernel=backend, **kw)
        assert ref.rank_trajectory == bat.rank_trajectory
        _assert_factors_close(ref.factors, bat.factors)
        np.testing.assert_allclose(
            ref.validation_history, bat.validation_history, rtol=1e-8
        )

    def test_degenerate_adaptive_is_fixed_rank_als(self, order, backend):
        """No search, no pruning: bit-identical to ``complete_als``."""
        shape = ORDERS[order]
        idx, vals = _ragged_observations(shape, seed=80 + order)
        fixed = complete_als(shape, idx, vals, rank=3, regularization=1e-5,
                             max_sweeps=5, tol=0.0, seed=2, kernel=backend)
        auto = complete_als_adaptive(
            shape, idx, vals, rank=3, rank_init=3, prune_threshold=0.0,
            val_fraction=0.0, regularization=1e-5, max_sweeps=5, tol=0.0,
            seed=2, kernel=backend,
        )
        for U, V in zip(fixed.factors, auto.factors):
            np.testing.assert_array_equal(U, V)
        assert auto.rank_trajectory == [3]


class TestPlanInvariants:
    def test_plan_segments_partition_observations(self):
        shape = (9, 6, 5)
        idx, _ = _ragged_observations(shape, seed=2)
        plan = ObservationPlan(shape, idx)
        for j in range(len(shape)):
            mp = plan.mode(j)
            assert mp.counts.sum() == len(idx)
            # sorted indices really are segment-contiguous in mode j
            assert np.all(np.diff(mp.sorted_indices[:, j]) >= 0)
            # padding scatter coordinates cover each segment exactly once
            assert len(mp.seg) == len(idx)
            assert mp.offsets.max() < mp.max_count

    def test_unobserved_rows_excluded_from_compaction(self):
        shape = (9, 6, 5)
        idx, _ = _ragged_observations(shape, seed=3)
        plan = ObservationPlan(shape, idx)
        mp = plan.mode(0)
        assert shape[0] - 1 not in mp.obs_rows
        assert not mp.observed[shape[0] - 1]

    def test_khatri_rao_matches_unsorted_reference(self):
        from repro.core.completion import khatri_rao_rows, resolve_backend

        shape = (7, 5, 6, 4)
        idx, vals = _ragged_observations(shape, seed=4)
        rng = np.random.default_rng(0)
        factors = [rng.normal(size=(I, 3)) for I in shape]
        ctx = resolve_backend("numpy_batched").prepare_als(shape, idx, vals)
        plan = ctx.plan
        for j in range(len(shape)):
            mp = plan.mode(j)
            K = ctx.design_rows(factors, j)
            expected = khatri_rao_rows(factors, idx, skip=j)[mp.order]
            np.testing.assert_allclose(K, expected, rtol=1e-13)
