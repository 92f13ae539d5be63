"""Alternating minimization via Newton's method with log barriers (AMN).

The paper's extrapolation model (Sections 4.2.2 and 5.3) minimizes Eq. 3
with the MLogQ2 loss ``phi(t, that) = (log t - log that)^2`` subject to
*strictly positive* factor matrices, enforced with element-wise log-barrier
terms scaled by a barrier parameter ``eta``.  Following the interior-point
recipe of Section 6.0.4:

* ``eta`` starts at 10 and decreases geometrically by a factor of 8 until it
  drops below a floor (the paper uses 1e-11; we also stop at the
  regularization magnitude, Section 4.2.2);
* for each ``eta``, alternating sweeps solve row-wise subproblems with (at
  most 40) damped Newton iterations.

The row subproblem for row ``u`` of mode ``j`` (observations ``Omega_i``,
design rows ``K`` from the Khatri-Rao product, ``s = K u > 0``) is

    g(u) = (1/n_i) sum_k (log s_k - log t_k)^2 + lam ||u||^2
           - eta * sum_r log(u_r).

We use the Gauss-Newton Hessian approximation
``H = (2/n_i) K^T diag(1/s^2) K + 2 lam I + eta diag(1/u^2)``, which is
positive definite everywhere in the interior (the exact Hessian loses
definiteness when residuals are large), plus a fraction-to-the-boundary
step rule and Armijo backtracking — the standard safeguards of
interior-point practice (Nocedal & Wright).

Implementation notes (hot path):

* Mode updates are dispatched to a kernel backend
  (:mod:`repro.core.completion.backends`).  The ``numpy_batched``
  backend runs the damped Gauss-Newton iterations for *all* rows of a
  mode simultaneously: residuals, gradients and the stacked Gauss-Newton
  Hessians are segment reductions over the mode's sorted observation
  block (one fit-wide
  :class:`~repro.core.completion.state.ObservationPlan`, replacing the
  seed's per-mode argsort on every sweep of every barrier level), the
  ``(n_rows, R, R)`` systems are solved by one batched LAPACK call, and
  the fraction-to-the-boundary rule plus Armijo backtracking run under
  per-row masks that freeze rows as they converge or fail to improve.
* That backend's fit context is ALS's row cache: design rows come from
  its cached factor rows and running Khatri-Rao prefix, and each
  Hessian is the Gram step of the mode's
  :class:`~repro.core.completion.state._ModeWorkspace` on ``K / s``,
  into a stack fixed for the fit (the same Gram path as ALS and
  Tucker).  A mode whose skewed multiplicities make padding too large
  runs the per-row Newton loop on its sorted segments instead.
* The ``reference`` backend retains the seed's per-row Newton loop for
  equivalence testing and benchmarking.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.completion.backends import resolve_backend
from repro.core.completion.objectives import logq_objective
from repro.core.completion.state import (
    CompletionResult,
    ObservationPlan,
    init_positive_factors,
    solve_batched_spd,
)
from repro.utils.rng import as_generator

__all__ = ["complete_amn"]

_POS_FLOOR = 1e-12  # numerical floor keeping iterates strictly interior


def _row_objective(K, logt, u, lam, eta, n_inv):
    s = K @ u
    if np.any(s <= 0) or np.any(u <= 0):
        return np.inf
    r = np.log(s) - logt
    return (
        n_inv * float(r @ r)
        + lam * float(u @ u)
        - eta * float(np.sum(np.log(u)))
    )


def _newton_row(K, logt, u, lam, eta, max_iter, tol):
    """Damped Gauss-Newton iterations on one row subproblem (in place)."""
    n_inv = 1.0 / len(logt)
    R = len(u)
    eye2lam = 2.0 * lam * np.eye(R)
    f = _row_objective(K, logt, u, lam, eta, n_inv)
    for _ in range(max_iter):
        s = K @ u
        r = np.log(s) - logt
        Ks = K / s[:, None]
        grad = 2.0 * n_inv * (Ks.T @ r) + 2.0 * lam * u - eta / u
        H = 2.0 * n_inv * (Ks.T @ Ks) + eye2lam + np.diag(eta / (u * u))
        try:
            step = scipy.linalg.solve(H, -grad, assume_a="pos")
        except np.linalg.LinAlgError:
            step = -grad / (np.diag(H) + 1e-12)
        # Fraction-to-the-boundary: keep the iterate strictly positive.
        neg = step < 0
        if np.any(neg):
            alpha_max = float(np.min(-0.995 * u[neg] / step[neg]))
            alpha = min(1.0, alpha_max)
        else:
            alpha = 1.0
        # Armijo backtracking on the barrier objective.
        g_dot_step = float(grad @ step)
        improved = False
        for _bt in range(30):
            trial = u + alpha * step
            f_trial = _row_objective(K, logt, trial, lam, eta, n_inv)
            if f_trial <= f + 1e-4 * alpha * g_dot_step:
                u = trial
                f = f_trial
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        if np.linalg.norm(alpha * step) <= tol * (np.linalg.norm(u) + 1e-30):
            break
    return np.maximum(u, _POS_FLOOR), f


def _row_objectives_batched(mp, K, logt_s, U, n_inv, lam, eta):
    """Barrier objective of every observed row at once.

    ``U`` is ``(n_obs, R)`` candidate rows; returns ``(n_obs,)`` with
    ``inf`` for rows that left the interior (any ``s <= 0`` or ``u <= 0``),
    mirroring :func:`_row_objective`.
    """
    s = np.einsum("kr,kr->k", K, U[mp.seg])
    interior = (mp.seg_min(s) > 0) & (U.min(axis=1) > 0)
    r = np.log(np.where(s > 0, s, 1.0)) - logt_s
    rss = mp.seg_sum(r * r)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (
            n_inv * rss
            + lam * np.einsum("nr,nr->n", U, U)
            - eta * np.sum(np.log(np.where(U > 0, U, 1.0)), axis=1)
        )
    return np.where(interior, f, np.inf)


def _newton_rows_batched(ctx, j, factors, lam, eta, max_iter, tol):
    """Damped Gauss-Newton on *all* rows of mode ``j`` simultaneously.

    Batched counterpart of :func:`_newton_row`: every per-row scalar of the
    reference loop (objective, step, boundary fraction, Armijo state,
    convergence) becomes an array over the mode's observed rows, and rows
    drop out of the ``alive`` mask exactly where the reference loop would
    ``break``.  ``ctx`` is the ``numpy_batched`` fit context (the row
    cache ALS uses): it supplies the design rows and the mode's
    workspace, whose Gram step builds every Hessian.  Results overwrite
    ``factors[j]`` in place; the caller refreshes the context after.
    """
    mp = ctx.plan.mode(j)
    if mp.n_obs == 0:
        return
    logt_s = ctx.t_sorted[j]
    if ctx.design is None:
        ctx.design = np.empty((ctx.plan.nnz, factors[j].shape[1]))
    K = ctx.design_rows(factors, j, out=ctx.design)  # sorted, (nnz, R)
    if not mp.pad_feasible:
        # Heavily skewed multiplicities: the padded Hessian batch would
        # dwarf O(nnz); run the per-row reference loop on the (already
        # sorted) segments instead.
        U = factors[j]
        for lo, hi, i in zip(mp.starts_obs,
                             mp.starts_obs + mp.counts_obs.astype(int),
                             mp.obs_rows):
            U[i], _ = _newton_row(
                K[lo:hi], logt_s[lo:hi], U[i].copy(), lam, eta, max_iter, tol
            )
        return
    R = factors[j].shape[1]
    ws = ctx.workspace(j)
    n_inv = 1.0 / mp.counts_obs
    U = factors[j][mp.obs_rows].copy()      # (n_obs, R)
    f = _row_objectives_batched(mp, K, logt_s, U, n_inv, lam, eta)
    alive = np.ones(mp.n_obs, dtype=bool)
    diag = np.arange(R)
    # Frozen rows still ride along in the full-stack computations below
    # (their updates are masked out).  Compacting the observation set to
    # the alive rows mid-loop would save straggler iterations but reorder
    # the segment reductions, breaking bit-level agreement with the
    # reference trajectory; rows converge at similar rates in practice, so
    # the waste is bounded and the loop exits as soon as none are alive.
    for _ in range(max_iter):
        s = np.einsum("kr,kr->k", K, U[mp.seg])
        r = np.log(s) - logt_s
        # ``K / s`` goes into the workspace's padding source.
        Ksw = np.divide(K, s[:, None], out=ws.K)
        grad = (
            2.0 * n_inv[:, None] * mp.seg_sum(Ksw * r[:, None])
            + 2.0 * lam * U
            - eta / U
        )
        H = ws.grams()
        H *= 2.0 * n_inv[:, None, None]
        H[:, diag, diag] += 2.0 * lam + eta / (U * U)
        step = solve_batched_spd(H, -grad)
        # Fraction-to-the-boundary: keep every iterate strictly positive.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(step < 0, -0.995 * U / step, np.inf)
        alpha = np.minimum(1.0, ratio.min(axis=1))
        g_dot_step = np.einsum("nr,nr->n", grad, step)
        # Armijo backtracking under per-row masks.
        accepted = np.zeros(mp.n_obs, dtype=bool)
        for _bt in range(30):
            need = alive & ~accepted
            if not need.any():
                break
            trial = U + alpha[:, None] * step
            f_trial = _row_objectives_batched(
                mp, K, logt_s, trial, n_inv, lam, eta
            )
            ok = need & (f_trial <= f + 1e-4 * alpha * g_dot_step)
            U[ok] = trial[ok]
            f[ok] = f_trial[ok]
            accepted |= ok
            alpha[need & ~ok] *= 0.5
        # Rows whose backtracking failed freeze at their current iterate;
        # accepted rows with a negligible move are converged.
        step_norm = np.linalg.norm(alpha[:, None] * step, axis=1)
        small = step_norm <= tol * (np.linalg.norm(U, axis=1) + 1e-30)
        alive &= accepted & ~small
        if not alive.any():
            break
    factors[j][mp.obs_rows] = np.maximum(U, _POS_FLOOR)


def complete_amn(
    shape,
    indices,
    values,
    rank: int,
    regularization: float = 1e-5,
    max_sweeps: int = 4,
    tol: float = 1e-6,
    seed=None,
    factors: list | None = None,
    barrier_start: float = 10.0,
    barrier_reduction: float = 8.0,
    barrier_min: float = 1e-11,
    newton_iters: int = 40,
    kernel=None,
    plan: ObservationPlan | None = None,
) -> CompletionResult:
    """Fit a strictly positive CP model by interior-point AMN.

    Parameters
    ----------
    values
        Observed cell means, strictly positive (times, not log-times).
    max_sweeps
        Alternating sweeps per barrier value.
    barrier_start, barrier_reduction, barrier_min
        The paper's schedule: ``eta = 10, 10/8, 10/64, ...`` until
        ``eta <= max(barrier_min, regularization)``.
    newton_iters
        Newton iteration cap per row subproblem (paper: 40).
    kernel
        Backend name (``"reference"``, ``"numpy_batched"``) or backend
        object; ``None`` picks ``numpy_batched`` (see
        :mod:`repro.core.completion.backends`).
    plan
        Optional pre-built :class:`ObservationPlan` (used by
        ``numpy_batched``) for streaming warm starts over an unchanged
        observation set; a plan for different observations raises.

    Returns
    -------
    CompletionResult
        ``history`` holds the MLogQ2 objective (no barrier term) after each
        sweep; all returned factors are strictly positive, so the Perron
        rank-1 extrapolation of Section 5.3 applies.
    """
    indices = np.asarray(indices, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    if len(indices) != len(values):
        raise ValueError("indices/values length mismatch")
    if len(values) == 0:
        raise ValueError("cannot complete a tensor with zero observations")
    if np.any(values <= 0):
        raise ValueError("AMN requires strictly positive observed values")
    d = len(shape)
    if d < 2:
        raise ValueError("tensor completion needs order >= 2")
    backend = resolve_backend(kernel)
    lam = float(regularization)
    if factors is None:
        gmean = float(np.exp(np.mean(np.log(values))))
        factors = init_positive_factors(
            shape, rank, rng=as_generator(seed), mean=gmean
        )
    else:
        # The buffered gathers require float64; coerce warm starts.
        factors = [np.asarray(U, dtype=float) for U in factors]
    logt = np.log(values)
    # Plan-reuse backends build (or validate) one argsort per mode for the
    # whole fit, shared by every sweep of every barrier level (the seed
    # re-sorted per mode per sweep).
    ctx = backend.prepare_amn(shape, indices, logt, plan=plan)

    def objective() -> float:
        return logq_objective(factors, ctx.indices, values, lam,
                              pred=ctx.evaluate(factors))

    history = [objective()]
    eta = float(barrier_start)
    eta_floor = max(float(barrier_min), lam)
    sweeps = 0
    converged = False
    while True:
        for _sweep in range(max_sweeps):
            for j in range(d):
                backend.amn_update(
                    ctx, factors, j, lam, eta, newton_iters, tol
                )
            sweeps += 1
            history.append(objective())
        if eta <= eta_floor:
            prev = history[-1 - max_sweeps] if len(history) > max_sweeps else history[0]
            converged = abs(prev - history[-1]) <= tol * max(abs(prev), 1e-30)
            break
        eta /= barrier_reduction
    return CompletionResult(
        factors=factors, history=history, converged=converged, n_sweeps=sweeps
    )


#: Plan-gating metadata the model layer consults (see
#: ``CPRModel._run_completion``): this optimizer takes ``kernel``/``plan``.
complete_amn.accepts_kernel = True
