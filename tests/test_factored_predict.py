"""Factored CP corner evaluation is bitwise identical to the stacked path.

``CPRModel.predict`` evaluates the ``2^q`` interpolation corners by
gathering each factor's rows once per mode and doubling the running
product (``cp_eval_corners``).  The oracle here is the earlier stacked
path, kept test-local: every corner multi-index stacked corner-major,
one ``cp_eval`` (or, for extrapolated modes, the tiled factor rows), the
same element map, and the same ``einsum`` blend.  Predictions must be
``np.array_equal``, not merely close.
"""
import numpy as np
import pytest

from repro.apps import get_application
from repro.core import CPRModel, TuckerModel
from repro.core.completion import cp_eval
from repro.core.interp import interpolation_weights
from repro.datasets import generate_dataset
from repro.serve import ModelRegistry

APPS = ["matmul", "qr", "bcast", "amg", "kripke", "exafmm"]
RANKS = [1, 2, 4, 8]
CELLS = [4, 8, 16]
N_TRAIN = 256


# -- the stacked-index oracle ---------------------------------------------------


def _stacked_corners(grid, X, active=None):
    """All ``2^q`` corner multi-indices stacked corner-major, and weights."""
    lo, hi, w_lo, w_hi, active = interpolation_weights(grid, X, active)
    n, d = lo.shape
    act = np.flatnonzero(active)
    C = 1 << len(act)
    idx = np.broadcast_to(lo, (C, n, d)).copy()
    w = np.ones((C, n))
    corners = np.arange(C)
    for b, j in enumerate(act):
        up = ((corners >> b) & 1).astype(bool)
        idx[up, :, j] = hi[:, j]
        w[up] *= w_hi[:, j]
        w[~up] *= w_lo[:, j]
    return idx.reshape(C * n, d), w


def _log_map(model, val):
    if model.loss == "log_mse":
        return np.clip(model.offset_ + val, model._log_lo, model._log_hi)
    return np.log(np.maximum(np.exp(model.offset_) * val, 1e-300))


def _blend(grid, log_elem, X, active=None):
    idx, w = _stacked_corners(grid, X, active)
    vals = np.asarray(log_elem(idx), dtype=float).reshape(w.shape)
    return np.exp(np.einsum("cn,cn->n", w, vals))


def oracle_predict(model, X, raw_value=None):
    """``CPRModel.predict`` through stacked corner indices."""
    X = model.validate_queries(X)
    raw_value = raw_value or (lambda idx: cp_eval(model.factors_, idx))
    policy = model.out_of_domain
    if policy == "auto":
        policy = "extrapolate" if model.loss == "mlogq2" else "clip"
    grid = model.grid_
    in_dom = grid.in_domain(X)
    if policy == "clip" and not in_dom.all():
        X = X.copy()
        for j, m in enumerate(grid.modes):
            if m.interpolates:
                X[:, j] = np.clip(X[:, j], m.edges[0], m.edges[-1])
        in_dom = grid.in_domain(X)
    fully_in = in_dom.all(axis=1)
    out = np.empty(len(X))
    rows = np.flatnonzero(fully_in)
    if len(rows):
        out[rows] = _blend(grid, lambda idx: _log_map(model, raw_value(idx)), X[rows])
    # Out-of-domain rows, grouped by a Python loop over rows.
    patterns = {}
    for r in np.flatnonzero(~fully_in):
        patterns.setdefault(tuple(np.flatnonzero(~in_dom[r])), []).append(r)
    for key, rlist in patterns.items():
        ridx = np.asarray(rlist, dtype=np.intp)
        Xg = X[ridx]
        ext = {j: model._extrapolator(j).factor_rows(Xg[:, j]) for j in key}

        def log_elem(idx, ext=ext, n=len(ridx)):
            prod = None
            for j, U in enumerate(model.factors_):
                f = np.tile(ext[j], (len(idx) // n, 1)) if j in ext else U[idx[:, j]]
                prod = f.copy() if prod is None else prod * f
            return _log_map(model, prod.sum(axis=1))

        active = np.array([
            m.interpolates and m.n_cells > 1 and j not in key
            for j, m in enumerate(grid.modes)
        ])
        out[ridx] = _blend(grid, log_elem, Xg, active)
    return np.maximum(out, 1e-16)


def assert_bitwise(model, X):
    got = model.predict(X)
    want = oracle_predict(model, X)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# -- query sets -------------------------------------------------------------------


def _numeric_modes(grid):
    return [j for j, m in enumerate(grid.modes) if m.interpolates]


def _midpoint_rows(grid, base, rng):
    X = base.copy()
    for j in _numeric_modes(grid):
        m = grid.modes[j]
        X[:, j] = m.midpoints[rng.integers(0, m.n_cells, len(X))]
    return X


def _fringe_rows(grid, base, rng):
    """Values between a domain edge and the nearest mid-point."""
    X = base.copy()
    for j in _numeric_modes(grid):
        m = grid.modes[j]
        t = rng.uniform(0.0, 1.0, len(X))
        low = m.edges[0] + t * (m.midpoints[0] - m.edges[0])
        high = m.midpoints[-1] + t * (m.edges[-1] - m.midpoints[-1])
        X[:, j] = np.where(rng.random(len(X)) < 0.5, low, high)
    return X


def _outside(grid, X, rows, modes):
    """Push ``modes`` of ``rows`` past the domain's upper edge."""
    X = X.copy()
    for j in modes:
        m = grid.modes[j]
        X[rows, j] = m.edges[-1] + 0.5 * (m.edges[-1] - m.edges[0])
    return X


def _query_sets(model, app, seed=1):
    rng = np.random.default_rng(seed)
    grid = model.grid_
    base = app.space.sample(48, rng=rng)
    num = _numeric_modes(grid)
    return {
        "sampled": base,
        "midpoints": _midpoint_rows(grid, base, rng),
        "fringe": _fringe_rows(grid, base, rng),
        "single_row": base[:1],
        "empty": base[:0],
        "one_outside": _outside(grid, base, slice(0, 16), num[:1]),
        "two_outside": _outside(grid, base, slice(8, 32), num[-2:]),
    }


# -- fitted models ------------------------------------------------------------------


def _fit(app_name, loss, rank, cells, **kw):
    app = get_application(app_name)
    train = generate_dataset(app, N_TRAIN, seed=0)
    model = CPRModel(
        space=app.space, cells=cells, rank=rank, loss=loss, seed=0,
        max_sweeps=3, **kw,
    )
    return model.fit(train.X, train.y), app


@pytest.mark.parametrize("loss", ["log_mse", "mlogq2"])
@pytest.mark.parametrize("app_name", APPS)
def test_predict_matches_stacked_oracle(app_name, loss):
    for rank in RANKS:
        for cells in CELLS:
            model, app = _fit(app_name, loss, rank, cells)
            for name, X in _query_sets(model, app).items():
                got = model.predict(X)
                want = oracle_predict(model, X)
                assert np.array_equal(got, want), (rank, cells, name)


@pytest.mark.parametrize("app_name", ["kripke", "exafmm"])
def test_clip_policy_matches_oracle(app_name):
    model, app = _fit(app_name, "mlogq2", 4, 8, out_of_domain="clip")
    num = _numeric_modes(model.grid_)
    X = _outside(model.grid_, app.space.sample(64, rng=1), slice(0, 40), num[:3])
    assert not model.grid_.in_domain(X).all()
    assert_bitwise(model, X)


def test_extrapolation_three_plus_patterns():
    """Vectorized grouping of outside-mode patterns keeps every row's answer."""
    model, app = _fit("exafmm", "mlogq2", 4, 8)
    grid = model.grid_
    num = _numeric_modes(grid)
    rng = np.random.default_rng(3)
    X = app.space.sample(300, rng=rng)
    choices = [num[:1], num[1:2], num[:2], num[-2:], num[2:5], []]
    pick = rng.integers(0, len(choices), len(X))
    for k, modes in enumerate(choices):
        X = _outside(grid, X, np.flatnonzero(pick == k), modes)
    patterns = {tuple(r) for r in ~grid.in_domain(X)}
    assert len(patterns - {(False,) * grid.order}) >= 3
    assert_bitwise(model, X)


def test_q0_only_categorical_or_single_cell_modes():
    """``2^0 = 1`` corner: amg with every numerical mode at one cell."""
    model, app = _fit("amg", "log_mse", 4, 1)
    active = interpolation_weights(model.grid_, app.space.sample(4, rng=0))[-1]
    assert not active.any()
    for X in _query_sets(model, app).values():
        assert_bitwise(model, X)


def test_reloaded_model_matches_oracle(tmp_path):
    registry = ModelRegistry(tmp_path)
    for app_name, loss in [("exafmm", "mlogq2"), ("kripke", "log_mse")]:
        model, app = _fit(app_name, loss, 4, 8)
        name = f"{app_name}-{loss}".replace("_", "-")
        registry.publish(name, model)
        served = registry.load(name)
        for X in _query_sets(model, app).values():
            assert np.array_equal(served.predict(X), model.predict(X))
            assert_bitwise(served, X)


def test_tucker_predict_unchanged():
    app = get_application("exafmm")
    train = generate_dataset(app, N_TRAIN, seed=0)
    model = TuckerModel(space=app.space, cells=8, rank=2, seed=0, max_sweeps=3)
    model.fit(train.X, train.y)
    for name, X in _query_sets(model, app).items():
        # Outside rows are clipped: Tucker has no Section 5.3 extrapolation.
        want = oracle_predict(model, X, raw_value=model.tucker_.eval_at)
        assert np.array_equal(model.predict(X), want), name
