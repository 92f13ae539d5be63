"""Bitwise oracle for the ``numpy_batched`` ALS mode update.

The ``numpy_batched`` ALS context runs each mode update on a per-fit
workspace and builds design rows from a running Khatri-Rao prefix.  Both
are pure restructurings: every arithmetic operation happens in the same
order on the same operands as the simpler update they replaced, so the
fits must be *bitwise* identical to it, not merely close.  This suite
keeps that simpler update as a test-local baseline (``_OracleRowCache``
and ``_oracle_solve_rows_batched`` below, with the ``np.linalg.norm``
gauge fix) and runs a table of fits under both strategies, requiring
``np.array_equal`` factors and exactly equal ``history`` and ``n_sweeps``.

Table-driven in the strategy pattern: :data:`STRATEGIES` lists the ways
to run a fit, :data:`CASES` the fits; every case runs under every
strategy and all results must agree with the oracle's.
"""
import numpy as np
import pytest

from repro.core.completion import (
    ObservationPlan,
    complete_als,
    complete_als_adaptive,
    complete_als_regularized,
    init_factors,
    solve_batched_spd,
)
from repro.core.completion import adaptive as adaptive_mod
from repro.core.completion import als as als_mod
from repro.core.completion.backends import (
    NumpyBatchedBackend,
    _FitContext,
    resolve_backend,
)
from repro.core.completion.state import cp_eval

# -- the oracle: the mode update before per-fit workspaces --------------------


class _OracleRowCache(_FitContext):
    """Cached gathered rows; each update multiplies all other modes afresh."""

    def __init__(self, plan, values):
        self.plan = plan
        self.indices = plan.indices
        self.t_sorted = [plan.sorted_values(values, j) for j in range(plan.d)]
        self._cols = [np.ascontiguousarray(plan.indices[:, k])
                      for k in range(plan.d)]
        self.rows = None

    def refresh(self, factors, modes=None):
        if self.rows is None:
            shape = (self.plan.nnz, factors[0].shape[1])
            self.rows = [np.empty(shape) for _ in factors]
            self._product = np.empty(shape)
            self._sorted = np.empty(shape)
            modes = None
        for k in range(len(factors)) if modes is None else modes:
            np.take(factors[k], self._cols[k], axis=0, out=self.rows[k])

    def _rows_of(self, factors):
        if self.rows is None:
            self.refresh(factors)
        return self.rows

    def design_rows(self, factors, j):
        others = [r for k, r in enumerate(self._rows_of(factors)) if k != j]
        K = others[0]
        if len(others) > 1:
            K = np.multiply(others[0], others[1], out=self._product)
            for r in others[2:]:
                K *= r
        return np.take(K, self.plan.mode(j).order, axis=0, out=self._sorted)

    def evaluate(self, factors):
        rows = self._rows_of(factors)
        prod = np.multiply(rows[0], rows[1], out=self._product)
        for r in rows[2:]:
            prod *= r
        return prod.sum(axis=1)


def _oracle_solve_rows_batched(mp, K, t_sorted, lam, out, scale_rows):
    if mp.n_obs == 0:
        return
    if not mp.pad_feasible:
        als_mod._solve_rows(
            K, t_sorted, mp.sorted_indices[:, mp.j], mp.n_rows, lam, out,
            scale_rows,
        )
        return
    R = K.shape[1]
    G = mp.gram(K)
    b = mp.seg_sum(K * t_sorted[:, None])
    if np.ndim(lam) > 0:
        lam_vec = np.asarray(lam, dtype=float)
        diag = (
            mp.counts_obs[:, None] * lam_vec[None, :] if scale_rows else lam_vec
        )
    else:
        diag = np.asarray(
            lam * mp.counts_obs if scale_rows else lam
        ).reshape(-1, 1)
    G.reshape(-1, R * R)[:, :: R + 1] += diag
    out[mp.obs_rows] = solve_batched_spd(G, b)


def _oracle_rebalance(factors):
    norms = np.stack([np.linalg.norm(U, axis=0) for U in factors])
    norms = np.maximum(norms, 1e-300)
    target = np.exp(np.log(norms).mean(axis=0))
    for j, U in enumerate(factors):
        U *= target / norms[j]


class _OracleBackend(NumpyBatchedBackend):
    """Not a named backend: fits receive the instance itself."""

    name = "oracle_numpy_batched"

    def prepare_als(self, shape, indices, values, plan=None):
        return _OracleRowCache(self._plan_for(shape, indices, plan), values)

    def als_update(self, ctx, factors, j, lam, scale_rows):
        _oracle_solve_rows_batched(
            ctx.plan.mode(j), ctx.design_rows(factors, j), ctx.t_sorted[j],
            lam, factors[j], scale_rows,
        )
        ctx.refresh(factors, (j,))


# -- strategies ----------------------------------------------------------------


class _Strategy:
    name = ""

    def run(self, case):
        raise NotImplementedError


class _Oracle(_Strategy):
    name = "oracle"

    def run(self, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(als_mod, "_rebalance", _oracle_rebalance)
            mp.setattr(adaptive_mod, "_rebalance", _oracle_rebalance)
            return case.fit(_OracleBackend())


class _Current(_Strategy):
    name = "numpy_batched"

    def run(self, case):
        return case.fit(resolve_backend("numpy_batched"))


STRATEGIES = [_Oracle(), _Current()]


# -- cases ---------------------------------------------------------------------


def _observations(shape, nnz, seed, center=2.0):
    """Uniform draws; mode 0's last row is scrubbed so it stays unobserved."""
    rng = np.random.default_rng(seed)
    idx = np.stack([rng.integers(0, I, nnz) for I in shape], axis=1)
    idx = idx[idx[:, 0] != shape[0] - 1]
    vals = rng.normal(size=len(idx)) * 0.5 + center
    return np.ascontiguousarray(idx), vals


def _shape(order):
    return tuple(3 + (k % 4) for k in range(order))


class _Case:
    def __init__(self, name, fit):
        self.name = name
        self.fit = fit  # fit(backend) -> list of CompletionResult


def _cold(order, rank, scale_rows):
    shape = _shape(order)
    idx, vals = _observations(shape, 40 * order, seed=100 * order + rank)

    def fit(backend):
        return [complete_als(
            shape, idx, vals, rank, regularization=1e-4, max_sweeps=8,
            tol=1e-6, seed=order, scale_rows=scale_rows, kernel=backend,
        )]

    return _Case(f"cold-d{order}-r{rank}-{'scaled' if scale_rows else 'sum'}",
                 fit)


def _warm(order, rank):
    shape = _shape(order)
    idx, vals = _observations(shape, 50 * order, seed=order)

    def fit(backend):
        plan = ObservationPlan(shape, idx)
        cold = complete_als(shape, idx, vals, rank, max_sweeps=6, seed=3,
                            kernel=backend, plan=plan)
        warm = complete_als(
            shape, idx, vals * 1.05, rank, max_sweeps=4, tol=0.0,
            factors=[U.copy() for U in cold.factors], kernel=backend, plan=plan,
        )
        again = complete_als(
            shape, idx, vals * 0.97, rank, max_sweeps=3, tol=0.0,
            factors=[U.copy() for U in warm.factors], kernel=backend, plan=plan,
        )
        return [cold, warm, again]

    return _Case(f"warm-d{order}-r{rank}", fit)


def _skewed(scale_rows):
    # One row of mode 0 owns almost every observation: that mode is
    # pad-infeasible and takes the per-row fallback; the others pad.
    rng = np.random.default_rng(0)
    shape = (40, 6, 5)
    nnz = 12000
    idx = np.stack(
        [
            np.where(rng.random(nnz) < 0.97, 3, rng.integers(0, 39, nnz)),
            rng.integers(0, 6, nnz),
            rng.integers(0, 5, nnz),
        ],
        axis=1,
    ).astype(np.intp)
    vals = rng.normal(size=nnz) * 0.3 + 2.0

    def fit(backend):
        plan = ObservationPlan(shape, idx)
        assert not plan.mode(0).pad_feasible and plan.mode(1).pad_feasible
        assert not plan.mode(0).observed[39]
        return [complete_als(shape, idx, vals, 3, max_sweeps=4, tol=0.0,
                             seed=2, scale_rows=scale_rows, kernel=backend,
                             plan=plan)]

    return _Case(f"skewed-{'scaled' if scale_rows else 'sum'}", fit)


def _regularized(order, penalties, scale_rows):
    shape = _shape(order)
    # Targets centred on zero: unconstrained solves go negative, so the
    # projection really writes the factors.
    idx, vals = _observations(shape, 60 * order, seed=7 + order, center=0.0)
    rank = 4

    def fit(backend):
        return [complete_als_regularized(
            shape, idx, vals, rank, regularization=1e-3, max_sweeps=6,
            tol=1e-6, seed=5, column_penalties=penalties, nonnegative=True,
            scale_rows=scale_rows, kernel=backend,
        )]

    label = penalties if isinstance(penalties, str) else "explicit"
    return _Case(
        f"nonneg-{label}-d{order}-{'scaled' if scale_rows else 'sum'}", fit
    )


def _adaptive():
    rng = np.random.default_rng(0)
    shape = (7, 6, 5, 6)
    truth = init_factors(shape, 3, rng=rng, noise=1.0)
    idx = np.stack([rng.integers(0, I, 500) for I in shape], axis=1)
    vals = cp_eval(truth, idx) + 0.01 * rng.normal(size=500)

    def fit(backend):
        res = complete_als_adaptive(
            shape, idx, vals, rank="auto", rank_init=2, max_rank=6,
            grow_step=2, max_sweeps=8, seed=0, kernel=backend,
        )
        traj = res.rank_trajectory
        assert traj[1] > traj[0] and traj[-1] < max(traj)  # grew, then pruned
        return [res]

    return _Case("adaptive-grow-prune", fit)


CASES = (
    [_cold(order, rank, scale_rows)
     for order in range(2, 10)
     for rank in (1, 2, 4, 8)
     for scale_rows in (True, False)]
    + [_warm(order, rank) for order, rank in ((2, 3), (5, 4), (9, 2))]
    + [_skewed(scale_rows) for scale_rows in (True, False)]
    + [_regularized(order, penalties, scale_rows)
       for order in (3, 7)
       for penalties in ("graded", np.array([1.0, 0.5, 2.0, 4.0]))
       for scale_rows in (True, False)]
    + [_adaptive()]
)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_bitwise_equal_to_oracle(case):
    results = {s.name: s.run(case) for s in STRATEGIES}
    expected = results["oracle"]
    for name, got in results.items():
        assert len(got) == len(expected)
        for k, (want, res) in enumerate(zip(expected, got)):
            where = f"{case.name} fit {k}: {name} vs oracle"
            assert res.n_sweeps == want.n_sweeps, where
            assert res.history == want.history, where
            assert res.converged == want.converged, where
            assert len(res.factors) == len(want.factors), where
            for j, (U, V) in enumerate(zip(want.factors, res.factors)):
                assert np.array_equal(U, V), f"{where}: mode {j} factors"
