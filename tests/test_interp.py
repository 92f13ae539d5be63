"""Tests for Eq. 5 multilinear interpolation and fringe extrapolation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import CategoricalMode, LogMode, TensorGrid, UniformMode
from repro.core.interp import interpolate, interpolation_weights, stacked


def _uniform_grid_2d():
    return TensorGrid([
        UniformMode("a", 0.0, 8.0, 8),
        UniformMode("b", 0.0, 8.0, 8),
    ])


class TestWeights:
    def test_interior_weights_sum_to_one(self):
        g = _uniform_grid_2d()
        X = np.array([[3.3, 4.7], [0.9, 7.2]])
        lo, hi, w_lo, w_hi, active = interpolation_weights(g, X)
        np.testing.assert_allclose(w_lo + w_hi, 1.0)
        assert active.all()

    def test_interior_weights_nonnegative(self):
        g = _uniform_grid_2d()
        # strictly between first and last midpoints
        X = np.array([[1.0, 6.5]])
        _, _, w_lo, w_hi, _ = interpolation_weights(g, X)
        assert np.all(w_lo >= 0) and np.all(w_hi >= 0)

    def test_fringe_weights_signed_but_affine(self):
        g = _uniform_grid_2d()
        # below the first midpoint (0.5): linear extrapolation territory
        X = np.array([[0.1, 4.0]])
        _, _, w_lo, w_hi, _ = interpolation_weights(g, X)
        assert w_lo[0, 0] > 1.0 and w_hi[0, 0] < 0.0
        np.testing.assert_allclose(w_lo + w_hi, 1.0)

    def test_midpoint_exact_hit(self):
        g = _uniform_grid_2d()
        X = np.array([[2.5, 3.5]])  # exact midpoints of cells 2 and 3
        lo, hi, w_lo, w_hi, _ = interpolation_weights(g, X)
        assert w_lo[0, 0] == pytest.approx(1.0)
        assert w_hi[0, 0] == pytest.approx(0.0)

    def test_categorical_mode_inactive(self):
        g = TensorGrid([UniformMode("a", 0, 4, 4), CategoricalMode("c", 3)])
        X = np.array([[2.0, 1.0]])
        lo, hi, w_lo, w_hi, active = interpolation_weights(g, X)
        assert not active[1]
        assert lo[0, 1] == hi[0, 1] == 1
        assert w_lo[0, 1] == 1.0 and w_hi[0, 1] == 0.0

    def test_explicit_active_mask_validates(self):
        g = TensorGrid([UniformMode("a", 0, 4, 4), CategoricalMode("c", 3)])
        with pytest.raises(ValueError):
            interpolation_weights(g, np.array([[1.0, 0.0]]),
                                  active=np.array([True, True]))

    def test_single_cell_mode_inactive(self):
        g = TensorGrid([UniformMode("a", 0, 4, 1), UniformMode("b", 0, 4, 4)])
        _, _, _, _, active = interpolation_weights(g, np.array([[1.0, 1.0]]))
        assert not active[0] and active[1]


class TestInterpolate:
    def test_exactly_reproduces_multilinear_function(self):
        """Eq. 5 on elements of a bilinear function must be exact."""
        g = _uniform_grid_2d()
        ma, mb = g.modes[0].midpoints, g.modes[1].midpoints

        def corner_eval(idx):
            return 2.0 * ma[idx[:, 0]] + 3.0 * mb[idx[:, 1]] + 1.0

        gen = np.random.default_rng(0)
        X = gen.uniform(0.5, 7.5, size=(100, 2))  # inside midpoint hull
        pred = interpolate(g, stacked(corner_eval), X)
        np.testing.assert_allclose(pred, 2.0 * X[:, 0] + 3.0 * X[:, 1] + 1.0,
                                   rtol=1e-12)

    def test_exact_on_product_form_bilinear(self):
        g = _uniform_grid_2d()
        ma, mb = g.modes[0].midpoints, g.modes[1].midpoints

        def corner_eval(idx):
            return ma[idx[:, 0]] * mb[idx[:, 1]]

        gen = np.random.default_rng(1)
        X = gen.uniform(0.5, 7.5, size=(50, 2))
        np.testing.assert_allclose(
            interpolate(g, stacked(corner_eval), X), X[:, 0] * X[:, 1], rtol=1e-12
        )

    def test_log_mode_interpolates_in_log_space(self):
        g = TensorGrid([LogMode("a", 1.0, 256.0, 8)])
        mids_h = g.modes[0].midpoints_h

        def corner_eval(idx):
            return 5.0 * mids_h[idx[:, 0]]  # linear in log(x)

        X = np.array([[3.0], [10.0], [100.0]])
        np.testing.assert_allclose(
            interpolate(g, stacked(corner_eval), X), 5.0 * np.log(X[:, 0]), rtol=1e-12
        )

    def test_fringe_is_linear_extrapolation(self):
        g = TensorGrid([UniformMode("a", 0.0, 8.0, 8)])
        mids = g.modes[0].midpoints

        def corner_eval(idx):
            return 2.0 * mids[idx[:, 0]]

        # beyond the last midpoint (7.5) but inside the domain
        X = np.array([[7.9], [0.05]])
        np.testing.assert_allclose(
            interpolate(g, stacked(corner_eval), X), 2.0 * X[:, 0], rtol=1e-12
        )

    def test_categorical_passthrough(self):
        g = TensorGrid([CategoricalMode("c", 3), UniformMode("b", 0, 4, 4)])
        table = np.array([10.0, 20.0, 30.0])
        mb = g.modes[1].midpoints

        def corner_eval(idx):
            return table[idx[:, 0]] + mb[idx[:, 1]]

        X = np.array([[0.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(
            interpolate(g, stacked(corner_eval), X), [12.0, 32.0]
        )

    def test_active_mask_disables_interpolation(self):
        g = _uniform_grid_2d()
        calls = []

        def corner_eval(idx):
            calls.append(idx.copy())
            return np.ones(len(idx))

        interpolate(g, stacked(corner_eval), np.array([[3.3, 4.7]]),
                    active=np.array([True, False]))
        # The fused blend makes exactly one stacked call, covering only the
        # 2 corners of the single active mode (not 4).
        assert len(calls) == 1
        assert calls[0].shape == (2, 2)
        # The inactive mode's index is fixed at its cell in both corners.
        assert np.all(calls[0][:, 1] == calls[0][0, 1])

    def test_weights_partition_constant_function(self):
        """Interpolating a constant must return the constant everywhere."""
        g = TensorGrid([
            LogMode("a", 1, 1024, 6),
            UniformMode("b", 0, 1, 4),
            CategoricalMode("c", 5),
        ])
        gen = np.random.default_rng(2)
        X = np.column_stack([
            np.exp(gen.uniform(0, np.log(1024), 200)),
            gen.uniform(0, 1, 200),
            gen.integers(0, 5, 200).astype(float),
        ])
        pred = interpolate(g, stacked(lambda idx: np.full(len(idx), 7.5)), X)
        np.testing.assert_allclose(pred, 7.5, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0.01, 7.99),
    slope=st.floats(-5, 5),
    intercept=st.floats(-5, 5),
)
def test_property_univariate_linear_exact(x, slope, intercept):
    """1-D Eq. 5 reproduces any affine function exactly, fringe included."""
    g = TensorGrid([UniformMode("a", 0.0, 8.0, 8)])
    mids = g.modes[0].midpoints

    def corner_eval(idx):
        return slope * mids[idx[:, 0]] + intercept

    pred = interpolate(g, stacked(corner_eval), np.array([[x]]))
    assert pred[0] == pytest.approx(slope * x + intercept, rel=1e-9, abs=1e-9)
