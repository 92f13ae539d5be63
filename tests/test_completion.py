"""Tests for CP state utilities and the four completion optimizers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import (
    OPTIMIZERS,
    CompletionResult,
    complete_als,
    complete_amn,
    complete_ccd,
    complete_sgd,
    cp_eval,
    cp_full,
    cp_size_bytes,
    init_factors,
    init_positive_factors,
    khatri_rao_rows,
)
from repro.core.completion.objectives import (
    frobenius_penalty,
    logq_objective,
    ls_objective,
)


def _random_lowrank(shape, rank, seed=0, positive=False):
    """A dense tensor of exact CP rank <= rank, plus observation sets."""
    gen = np.random.default_rng(seed)
    if positive:
        factors = [np.exp(gen.normal(0, 0.5, (I, rank))) for I in shape]
    else:
        factors = [gen.normal(0, 1, (I, rank)) for I in shape]
    dense = cp_full(factors)
    return factors, dense


def _observe_all(shape):
    grids = np.meshgrid(*[np.arange(I) for I in shape], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


class TestState:
    def test_init_factors_shapes(self):
        fs = init_factors((3, 4, 5), 2, rng=np.random.default_rng(0))
        assert [f.shape for f in fs] == [(3, 2), (4, 2), (5, 2)]

    def test_init_factors_scaled_products(self):
        """Component products should be O(1/R) regardless of order."""
        for d in (2, 6, 10):
            fs = init_factors((4,) * d, 8, rng=np.random.default_rng(1))
            idx = np.zeros((64, d), dtype=np.intp)
            idx[:, 0] = np.arange(64) % 4
            vals = cp_eval(fs, idx)
            assert np.all(np.abs(vals) < 50)
            assert np.mean(np.abs(vals)) > 0.01

    def test_init_rank_invalid(self):
        with pytest.raises(ValueError):
            init_factors((3, 3), 0)

    def test_init_positive(self):
        fs = init_positive_factors((3, 4), 2, rng=np.random.default_rng(0), mean=5.0)
        assert all(np.all(f > 0) for f in fs)
        idx = _observe_all((3, 4))
        assert np.median(cp_eval(fs, idx)) == pytest.approx(5.0, rel=0.5)

    def test_init_positive_invalid_mean(self):
        with pytest.raises(ValueError):
            init_positive_factors((3, 3), 2, mean=0.0)

    def test_cp_eval_matches_cp_full(self):
        factors, dense = _random_lowrank((3, 4, 5), 2)
        idx = _observe_all((3, 4, 5))
        np.testing.assert_allclose(cp_eval(factors, idx), dense.ravel())

    def test_cp_eval_bad_indices_shape(self):
        factors, _ = _random_lowrank((3, 4), 2)
        with pytest.raises(ValueError):
            cp_eval(factors, np.zeros((5, 3), dtype=int))

    def test_khatri_rao_rows(self):
        factors, _ = _random_lowrank((3, 4, 5), 2, seed=1)
        idx = _observe_all((3, 4, 5))
        K = khatri_rao_rows(factors, idx, skip=1)
        manual = factors[0][idx[:, 0]] * factors[2][idx[:, 2]]
        np.testing.assert_allclose(K, manual)

    def test_cp_size_bytes(self):
        factors, _ = _random_lowrank((3, 4, 5), 2)
        assert cp_size_bytes(factors) == 8 * 2 * (3 + 4 + 5)

    def test_result_rank(self):
        factors, _ = _random_lowrank((3, 4), 2)
        assert CompletionResult(factors=factors).rank == 2


class TestObjectives:
    def test_penalty(self):
        fs = [np.ones((2, 1)), np.ones((3, 1))]
        assert frobenius_penalty(fs, 0.5) == pytest.approx(0.5 * 5)

    def test_ls_objective_zero_at_exact(self):
        factors, dense = _random_lowrank((3, 4), 2)
        idx = _observe_all((3, 4))
        assert ls_objective(factors, idx, dense.ravel(), 0.0) == pytest.approx(0.0)

    def test_logq_objective_zero_at_exact(self):
        factors, dense = _random_lowrank((3, 4), 2, positive=True)
        idx = _observe_all((3, 4))
        assert logq_objective(factors, idx, dense.ravel(), 0.0) == pytest.approx(
            0.0, abs=1e-20
        )


class TestALS:
    def test_recovers_lowrank_fully_observed(self):
        _, dense = _random_lowrank((6, 7, 5), 2, seed=3)
        idx = _observe_all(dense.shape)
        res = complete_als(dense.shape, idx, dense.ravel(), rank=3,
                           regularization=1e-10, max_sweeps=200, tol=1e-14, seed=0)
        np.testing.assert_allclose(cp_eval(res.factors, idx), dense.ravel(),
                                   atol=1e-5 * np.abs(dense).max())

    def test_recovers_lowrank_partially_observed(self):
        _, dense = _random_lowrank((8, 8, 8), 2, seed=4)
        gen = np.random.default_rng(5)
        idx_all = _observe_all(dense.shape)
        sel = gen.choice(len(idx_all), size=300, replace=False)
        idx = idx_all[sel]
        res = complete_als(dense.shape, idx, dense.ravel()[sel], rank=2,
                           regularization=1e-9, max_sweeps=300, tol=1e-14, seed=0)
        # generalization to unobserved entries
        pred = cp_eval(res.factors, idx_all)
        rel = np.abs(pred - dense.ravel()) / (np.abs(dense.ravel()) + 1e-9)
        assert np.median(rel) < 0.05

    def test_monotone_history_unscaled_rows(self):
        _, dense = _random_lowrank((6, 6, 6), 3, seed=6)
        gen = np.random.default_rng(7)
        idx_all = _observe_all(dense.shape)
        sel = gen.choice(len(idx_all), size=150, replace=False)
        res = complete_als(dense.shape, idx_all[sel], dense.ravel()[sel],
                           rank=2, regularization=1e-3, max_sweeps=40,
                           scale_rows=False, seed=1)
        h = np.asarray(res.history)
        assert np.all(np.diff(h) <= 1e-10 * np.maximum(h[:-1], 1e-30))

    def test_warm_start_continues(self):
        _, dense = _random_lowrank((5, 5), 2, seed=8)
        idx = _observe_all(dense.shape)
        r1 = complete_als(dense.shape, idx, dense.ravel(), rank=2,
                          max_sweeps=2, tol=0.0, seed=0)
        r2 = complete_als(dense.shape, idx, dense.ravel(), rank=2,
                          max_sweeps=2, tol=0.0, factors=r1.factors)
        assert r2.history[-1] <= r1.history[-1] + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            complete_als((4,), np.zeros((2, 1), dtype=int), np.ones(2), rank=1)
        with pytest.raises(ValueError):
            complete_als((4, 4), np.zeros((0, 2), dtype=int), np.ones(0), rank=1)
        with pytest.raises(ValueError):
            complete_als((4, 4), np.zeros((2, 2), dtype=int), np.ones(3), rank=1)

    def test_unobserved_rows_untouched(self):
        idx = np.array([[0, 0], [1, 1]], dtype=np.intp)
        vals = np.array([1.0, 2.0])
        init = init_factors((3, 2), 1, rng=np.random.default_rng(0))
        before = init[0][2].copy()
        res = complete_als((3, 2), idx, vals, rank=1, max_sweeps=3,
                           factors=[f.copy() for f in init])
        # row 2 of mode 0 has no observations; only rebalancing rescales it.
        after = res.factors[0][2]
        ratio = after / before
        assert np.allclose(ratio, ratio[0])


class TestCCD:
    def test_monotone_history(self):
        _, dense = _random_lowrank((6, 6, 4), 2, seed=9)
        gen = np.random.default_rng(10)
        idx_all = _observe_all(dense.shape)
        sel = gen.choice(len(idx_all), size=100, replace=False)
        res = complete_ccd(dense.shape, idx_all[sel], dense.ravel()[sel],
                           rank=2, regularization=1e-4, max_sweeps=50, seed=2)
        h = np.asarray(res.history)
        assert np.all(np.diff(h) <= 1e-9 * np.maximum(h[:-1], 1e-30))

    def test_reaches_als_quality(self):
        _, dense = _random_lowrank((6, 6), 2, seed=11)
        idx = _observe_all(dense.shape)
        ccd = complete_ccd(dense.shape, idx, dense.ravel(), rank=2,
                           regularization=1e-9, max_sweeps=500, tol=1e-14, seed=0)
        assert ccd.history[-1] < 1e-4 * max(ccd.history[0], 1e-30)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            complete_ccd((3, 3), np.zeros((0, 2), dtype=int), np.ones(0), rank=1)


class TestSGD:
    def test_objective_decreases(self):
        _, dense = _random_lowrank((8, 8), 2, seed=12)
        idx = _observe_all(dense.shape)
        res = complete_sgd(dense.shape, idx, dense.ravel(), rank=2,
                           regularization=0.0, max_sweeps=100, seed=3,
                           learning_rate=0.05)
        assert res.history[-1] < 0.3 * res.history[0]

    def test_seeded_reproducible(self):
        _, dense = _random_lowrank((6, 6), 2, seed=13)
        idx = _observe_all(dense.shape)
        a = complete_sgd(dense.shape, idx, dense.ravel(), rank=2, seed=4,
                         max_sweeps=10)
        b = complete_sgd(dense.shape, idx, dense.ravel(), rank=2, seed=4,
                         max_sweeps=10)
        np.testing.assert_allclose(a.history, b.history)


class TestAMN:
    def test_factors_strictly_positive(self):
        _, dense = _random_lowrank((5, 5, 4), 2, seed=14, positive=True)
        idx = _observe_all(dense.shape)
        res = complete_amn(dense.shape, idx, dense.ravel(), rank=2,
                           max_sweeps=1, newton_iters=8, seed=0)
        assert all(np.all(f > 0) for f in res.factors)

    def test_fits_positive_tensor(self):
        _, dense = _random_lowrank((6, 5, 4), 2, seed=15, positive=True)
        idx = _observe_all(dense.shape)
        res = complete_amn(dense.shape, idx, dense.ravel(), rank=2,
                           regularization=1e-6, max_sweeps=2, newton_iters=15,
                           seed=1)
        assert res.history[-1] < 0.05 * res.history[0]

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            complete_amn((3, 3), np.array([[0, 0]], dtype=np.intp),
                         np.array([-1.0]), rank=1)

    def test_objective_mostly_decreasing(self):
        _, dense = _random_lowrank((5, 5), 2, seed=16, positive=True)
        idx = _observe_all(dense.shape)
        res = complete_amn(dense.shape, idx, dense.ravel(), rank=2,
                           max_sweeps=1, newton_iters=10, seed=2)
        assert res.history[-1] <= res.history[0]


class TestRegistry:
    def test_all_optimizers_registered(self):
        assert set(OPTIMIZERS) == {
            "als",
            "als_adaptive",
            "als_reg",
            "ccd",
            "sgd",
            "amn",
        }


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    rank=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_property_cp_eval_linear_in_each_factor(d, rank, seed):
    """Scaling one factor by c scales every model value by c."""
    gen = np.random.default_rng(seed)
    shape = tuple(gen.integers(2, 5) for _ in range(d))
    factors = [gen.normal(size=(I, rank)) for I in shape]
    idx = np.stack([gen.integers(0, I, size=20) for I in shape], axis=1)
    base = cp_eval(factors, idx)
    c = 3.0
    factors[0] = factors[0] * c
    np.testing.assert_allclose(cp_eval(factors, idx), c * base, rtol=1e-10)
