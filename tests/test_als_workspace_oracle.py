"""Bitwise oracle for the batched ALS, AMN and Tucker mode updates.

The ``numpy_batched`` fit context runs each ALS and AMN mode update on a
per-fit workspace and builds design rows from a running Khatri-Rao
prefix; Tucker's factor update runs the same workspace's ridge step.
These are pure restructurings: every arithmetic operation happens in the
same order on the same operands as the simpler updates they replaced, so
the fits must be *bitwise* identical to them, not merely close.  This
suite keeps those simpler updates as test-local baselines and runs a
table of fits under both strategies, requiring ``np.array_equal``
factors (and Tucker cores) and exactly equal ``history`` and
``n_sweeps``:

* ALS: ``_OracleRowCache`` and ``_oracle_solve_rows_batched`` below, with
  the ``np.linalg.norm`` gauge fix;
* AMN: ``_oracle_newton_rows_batched``, on plan-order Khatri-Rao rows
  gathered afresh and a Hessian padded into fresh arrays;
* Tucker: ``_OracleTuckerWorkspace``, the inline batched ridge solve and
  per-row fallback the factor update ran before it shared the workspace.

Table-driven in the strategy pattern: :data:`STRATEGIES` lists the ways
to run a fit, :data:`CASES` the fits; every case runs under every
strategy and all results must agree with the oracle's.
"""
import numpy as np
import pytest

import scipy.linalg

from repro.core.completion import (
    ObservationPlan,
    complete_als,
    complete_als_adaptive,
    complete_als_regularized,
    complete_amn,
    init_factors,
    solve_batched_spd,
)
from repro.core.completion import adaptive as adaptive_mod
from repro.core.completion import als as als_mod
from repro.core.completion import amn as amn_mod
from repro.core.completion import tucker as tucker_mod
from repro.core.completion.backends import (
    NumpyBatchedBackend,
    _FitContext,
    resolve_backend,
)
from repro.core.completion.state import _solve_rows, cp_eval
from repro.core.completion.tucker import TuckerFactors, complete_tucker

# -- the oracle: the mode updates before per-fit workspaces -------------------


def _oracle_gram(mp, K):
    """Stacked segment Grams ``K_i^T K_i``: pad into fresh arrays, one GEMM."""
    src = np.zeros((len(K) + 1, K.shape[1]))
    src[:-1] = K
    P = np.take(src, mp.pad_slots(), axis=0).reshape(
        mp.n_obs, mp.max_count, K.shape[1]
    )
    return np.matmul(P.transpose(0, 2, 1), P)


def _oracle_khatri_rao(plan, factors, j):
    """Mode ``j``'s design rows gathered afresh on the sorted multi-indices."""
    idx = plan.mode(j).sorted_indices
    first = 0 if j != 0 else 1
    K = np.take(factors[first], idx[:, first], axis=0)
    for j2 in range(plan.d):
        if j2 == j or j2 == first:
            continue
        K *= np.take(factors[j2], idx[:, j2], axis=0)
    return K


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
        _solve_rows(
            K, t_sorted, mp.sorted_indices[:, mp.j], mp.n_rows, lam, out,
            scale_rows,
        )
        return
    R = K.shape[1]
    G = _oracle_gram(mp, K)
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


def _oracle_newton_rows_batched(plan, j, factors, logt_s, lam, eta, max_iter,
                                tol):
    mp = plan.mode(j)
    if mp.n_obs == 0:
        return
    if not mp.pad_feasible:
        K = _oracle_khatri_rao(plan, factors, j)
        U = factors[j]
        for lo, hi, i in zip(mp.starts_obs,
                             mp.starts_obs + mp.counts_obs.astype(int),
                             mp.obs_rows):
            U[i], _ = amn_mod._newton_row(
                K[lo:hi], logt_s[lo:hi], U[i].copy(), lam, eta, max_iter, tol
            )
        return
    R = factors[j].shape[1]
    K = _oracle_khatri_rao(plan, factors, j)
    n_inv = 1.0 / mp.counts_obs
    U = factors[j][mp.obs_rows].copy()
    f = amn_mod._row_objectives_batched(mp, K, logt_s, U, n_inv, lam, eta)
    alive = np.ones(mp.n_obs, dtype=bool)
    diag = np.arange(R)
    for _ in range(max_iter):
        s = np.einsum("kr,kr->k", K, U[mp.seg])
        r = np.log(s) - logt_s
        Ksw = K / s[:, None]
        grad = (
            2.0 * n_inv[:, None] * mp.seg_sum(Ksw * r[:, None])
            + 2.0 * lam * U
            - eta / U
        )
        H = _oracle_gram(mp, Ksw)
        H *= 2.0 * n_inv[:, None, None]
        H[:, diag, diag] += 2.0 * lam + eta / (U * U)
        step = solve_batched_spd(H, -grad)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(step < 0, -0.995 * U / step, np.inf)
        alpha = np.minimum(1.0, ratio.min(axis=1))
        g_dot_step = np.einsum("nr,nr->n", grad, step)
        accepted = np.zeros(mp.n_obs, dtype=bool)
        for _bt in range(30):
            need = alive & ~accepted
            if not need.any():
                break
            trial = U + alpha[:, None] * step
            f_trial = amn_mod._row_objectives_batched(
                mp, K, logt_s, trial, n_inv, lam, eta
            )
            ok = need & (f_trial <= f + 1e-4 * alpha * g_dot_step)
            U[ok] = trial[ok]
            f[ok] = f_trial[ok]
            accepted |= ok
            alpha[need & ~ok] *= 0.5
        step_norm = np.linalg.norm(alpha[:, None] * step, axis=1)
        small = step_norm <= tol * (np.linalg.norm(U, axis=1) + 1e-30)
        alive &= accepted & ~small
        if not alive.any():
            break
    factors[j][mp.obs_rows] = np.maximum(U, amn_mod._POS_FLOOR)


class _OracleTuckerWorkspace:
    """Tucker's factor update before the shared workspace, behind its API."""

    def __init__(self, mp, rank, t_sorted):
        self.mp = mp
        self.t_sorted = t_sorted
        self.K = np.empty((len(mp.order), rank))

    def solve(self, lam, scale_rows, out):
        assert not scale_rows
        mp, K, R = self.mp, self.K, self.K.shape[1]
        if not mp.pad_feasible:
            eye = np.eye(R)
            ts = self.t_sorted
            for lo, hi, i in zip(
                mp.starts_obs,
                mp.starts_obs + mp.counts[mp.obs_rows],
                mp.obs_rows,
            ):
                Ki, ti = K[lo:hi], ts[lo:hi]
                G = Ki.T @ Ki + lam * eye
                try:
                    out[i] = scipy.linalg.solve(G, Ki.T @ ti, assume_a="pos")
                except np.linalg.LinAlgError:
                    out[i] = np.linalg.lstsq(G, Ki.T @ ti, rcond=None)[0]
            return
        G = _oracle_gram(mp, K)
        b = mp.seg_sum(K * self.t_sorted[:, None])
        G[:, np.arange(R), np.arange(R)] += lam
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

    def prepare_amn(self, shape, indices, logt, plan=None):
        plan = self._plan_for(shape, indices, plan)
        return _FitContext(
            plan=plan,
            indices=plan.indices,
            logt_sorted=[plan.sorted_values(logt, j) for j in range(plan.d)],
        )

    def amn_update(self, ctx, factors, j, lam, eta, max_iter, tol):
        _oracle_newton_rows_batched(
            ctx.plan, j, factors, ctx.logt_sorted[j], lam, eta, max_iter, tol
        )


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
            # Tucker takes no backend: its workspace class is the seam.
            mp.setattr(tucker_mod, "_ModeWorkspace", _OracleTuckerWorkspace)
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


def _skewed_observations(shape=(40, 6, 5), nnz=12000):
    # One row of mode 0 owns almost every observation: that mode is
    # pad-infeasible and takes the per-row fallback; the others pad.
    rng = np.random.default_rng(0)
    idx = np.stack(
        [
            np.where(rng.random(nnz) < 0.97, 3,
                     rng.integers(0, shape[0] - 1, nnz)),
            rng.integers(0, shape[1], nnz),
            rng.integers(0, shape[2], nnz),
        ],
        axis=1,
    ).astype(np.intp)
    vals = rng.normal(size=nnz) * 0.3 + 2.0
    plan = ObservationPlan(shape, idx)
    assert not plan.mode(0).pad_feasible and plan.mode(1).pad_feasible
    assert not plan.mode(0).observed[shape[0] - 1]
    return idx, vals


def _skewed(scale_rows):
    shape = (40, 6, 5)
    idx, vals = _skewed_observations(shape)

    def fit(backend):
        plan = ObservationPlan(shape, idx)
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


def _amn_cold(order, rank, barrier_min):
    shape = _shape(order)
    idx, vals = _observations(shape, 40 * order, seed=300 + 10 * order + rank)
    times = np.exp(0.5 * vals)

    def fit(backend):
        return [complete_amn(
            shape, idx, times, rank, max_sweeps=2, newton_iters=10,
            barrier_min=barrier_min, tol=1e-8, seed=order, kernel=backend,
        )]

    return _Case(f"amn-cold-d{order}-r{rank}-eta{barrier_min:g}", fit)


def _amn_warm(order, rank):
    shape = _shape(order)
    idx, vals = _observations(shape, 50 * order, seed=400 + order)
    times = np.exp(0.5 * vals)

    def fit(backend):
        plan = ObservationPlan(shape, idx)
        kw = dict(max_sweeps=1, newton_iters=8, barrier_min=1e-2,
                  kernel=backend, plan=plan)
        cold = complete_amn(shape, idx, times, rank, seed=3, **kw)
        warm = complete_amn(shape, idx, times * 1.05, rank, tol=0.0,
                            factors=[U.copy() for U in cold.factors], **kw)
        again = complete_amn(shape, idx, times * 0.97, rank, tol=0.0,
                             factors=[U.copy() for U in warm.factors], **kw)
        return [cold, warm, again]

    return _Case(f"amn-warm-d{order}-r{rank}", fit)


def _amn_skewed():
    shape = (40, 6, 5)
    idx, vals = _skewed_observations(shape, nnz=3000)
    times = np.exp(0.4 * vals)

    def fit(backend):
        return [complete_amn(shape, idx, times, 2, max_sweeps=1,
                             newton_iters=6, barrier_min=1e-1, seed=2,
                             kernel=backend)]

    return _Case("amn-skewed", fit)


def _tucker(order, rank):
    shape = _shape(order)
    idx, vals = _observations(shape, 40 * order, seed=500 + order)

    def fit(backend):  # Tucker takes no backend (see _Oracle.run)
        return [complete_tucker(shape, idx, vals, rank=rank, max_sweeps=6,
                                tol=1e-7, seed=order)]

    label = rank if isinstance(rank, int) else "x".join(map(str, rank))
    return _Case(f"tucker-d{order}-r{label}", fit)


def _tucker_skewed():
    shape = (40, 6, 5)
    idx, vals = _skewed_observations(shape)

    def fit(backend):
        return [complete_tucker(shape, idx, vals, rank=(2, 3, 2),
                                max_sweeps=4, tol=0.0, seed=1)]

    return _Case("tucker-skewed", fit)


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
    + [_amn_cold(order, rank, barrier_min)
       for order in range(2, 6)
       for rank in (1, 3)
       for barrier_min in (1e-1, 1e-3)]
    + [_amn_warm(order, rank) for order, rank in ((2, 2), (4, 3))]
    + [_amn_skewed()]
    + [_tucker(order, rank)
       for order in range(2, 6)
       for rank in (2, 3)]
    + [_tucker(3, (2, 3, 1)), _tucker(4, (3, 1, 2, 2))]
    + [_tucker_skewed()]
)


def _arrays(factors):
    """A result's factor matrices, with a Tucker model's core first."""
    out = []
    for F in factors:
        if isinstance(F, TuckerFactors):
            out += [F.core] + list(F.factors)
        else:
            out.append(F)
    return out


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
            want_arrays, got_arrays = _arrays(want.factors), _arrays(res.factors)
            assert len(got_arrays) == len(want_arrays), where
            for j, (U, V) in enumerate(zip(want_arrays, got_arrays)):
                assert np.array_equal(U, V), f"{where}: array {j}"
