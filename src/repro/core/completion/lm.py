"""Levenberg-Marquardt tensor completion (Tomasi & Bro 2005).

The paper's Section 4.2.1 credits Levenberg-Marquardt as the first method
proposed for least-squares CP completion [67].  Unlike ALS, LM updates
*all* factor matrices simultaneously: with residuals
``r_k = that_k - t_k`` over the observed set and the stacked parameter
vector ``theta = vec(U_1), ..., vec(U_d)``, each iteration solves the
damped normal equations

    (J^T J + mu * diag(J^T J) + 2 lam I) delta = -(J^T r + 2 lam theta)

and adapts the damping ``mu`` by the usual accept/reject rule (divide by
``nu`` on improvement, multiply on failure).  The Jacobian row of
observation ``k`` with respect to ``U_j[i_jk, :]`` is the Khatri-Rao row
``prod_{j' != j} U_{j'}[i_{j'k}, :]`` — assembled sparsely since each
observation touches exactly ``d * R`` parameters.

Practical only while ``R * sum_j I_j`` stays in the low thousands (the
normal matrix is dense); that covers every grid in the paper's sweeps.
LM's simultaneous updates avoid ALS's zig-zagging on ill-conditioned
problems at a higher per-iteration cost.  It is reachable as
``CPRModel(optimizer="lm")``; the optimizer ablation
(``repro.experiments.ablations``) compares ALS, CCD and SGD only.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.completion.objectives import ls_objective
from repro.core.completion.state import (
    CompletionResult,
    cp_eval,
    init_factors,
    khatri_rao_rows,
)
from repro.utils.rng import as_generator

__all__ = ["complete_lm"]


def _pack(factors):
    return np.concatenate([U.ravel() for U in factors])


def _unpack(theta, shape, rank):
    factors = []
    pos = 0
    for I in shape:
        n = int(I) * rank
        factors.append(theta[pos : pos + n].reshape(int(I), rank))
        pos += n
    return factors


def _assemble_normal(factors, indices, values, lam):
    """Return (JtJ, Jtr, r) for the current iterate (dense normal matrix)."""
    d = len(factors)
    rank = factors[0].shape[1]
    sizes = [U.shape[0] * rank for U in factors]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    P = int(offsets[-1])
    m = len(values)
    r = cp_eval(factors, indices) - values

    # Per-observation Jacobian blocks: K_j = khatri_rao_rows(skip=j).
    Ks = [khatri_rao_rows(factors, indices, skip=j) for j in range(d)]
    # Column index of parameter (j, row i, component c): offset_j + i*R + c.
    cols = [
        offsets[j] + indices[:, j][:, None] * rank + np.arange(rank)[None, :]
        for j in range(d)
    ]

    JtJ = np.zeros((P, P))
    Jtr = np.zeros(P)
    for j in range(d):
        np.add.at(Jtr, cols[j], Ks[j] * r[:, None])
        for j2 in range(j, d):
            # Outer products of the two blocks, accumulated per (row, row').
            contrib = Ks[j][:, :, None] * Ks[j2][:, None, :]
            flat_rows = cols[j][:, :, None] + np.zeros((1, 1, rank), dtype=np.intp)
            flat_cols = cols[j2][:, None, :] + np.zeros((1, rank, 1), dtype=np.intp)
            np.add.at(JtJ, (flat_rows.ravel(), flat_cols.ravel()), contrib.ravel())
            if j2 != j:
                np.add.at(
                    JtJ, (flat_cols.ravel(), flat_rows.ravel()), contrib.ravel()
                )
    theta = _pack(factors)
    JtJ[np.diag_indices_from(JtJ)] += 2.0 * lam
    Jtr += 2.0 * lam * theta
    return JtJ, Jtr, r


def complete_lm(
    shape,
    indices,
    values,
    rank: int,
    regularization: float = 1e-5,
    max_sweeps: int = 50,
    tol: float = 1e-7,
    seed=None,
    factors: list | None = None,
    mu0: float = 1e-2,
    nu: float = 3.0,
    max_params: int = 4096,
) -> CompletionResult:
    """Fit a CP decomposition with damped Gauss-Newton (LM) iterations.

    One "sweep" is one accepted LM step (all factors updated at once).
    ``max_params`` guards the dense ``P x P`` normal matrix.
    """
    indices = np.asarray(indices, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    if len(indices) != len(values):
        raise ValueError("indices/values length mismatch")
    if len(values) == 0:
        raise ValueError("cannot complete a tensor with zero observations")
    d = len(shape)
    if d < 2:
        raise ValueError("tensor completion needs order >= 2")
    P = rank * int(np.sum(shape))
    if P > max_params:
        raise MemoryError(
            f"LM normal matrix would be {P}x{P} (> max_params={max_params}); "
            "use ALS/CCD for grids this large"
        )
    if factors is None:
        factors = init_factors(shape, rank, rng=as_generator(seed))
    lam = float(regularization)

    history = [ls_objective(factors, indices, values, lam)]
    mu = float(mu0)
    converged = False
    sweeps = 0
    attempts = 0
    while sweeps < max_sweeps and attempts < 8 * max_sweeps:
        JtJ, Jtr, _r = _assemble_normal(factors, indices, values, lam)
        diag = np.diag(JtJ).copy()
        accepted = False
        for _try in range(25):
            attempts += 1
            A = JtJ.copy()
            A[np.diag_indices_from(A)] += mu * np.maximum(diag, 1e-12)
            try:
                delta = scipy.linalg.solve(A, -Jtr, assume_a="pos")
            except np.linalg.LinAlgError:
                mu *= nu
                continue
            theta_new = _pack(factors) + delta
            trial = _unpack(theta_new, shape, rank)
            obj_new = ls_objective(trial, indices, values, lam)
            if obj_new < history[-1]:
                factors = trial
                history.append(obj_new)
                mu = max(mu / nu, 1e-12)
                accepted = True
                break
            mu *= nu
        if not accepted:
            break
        sweeps += 1
        prev, cur = history[-2], history[-1]
        if prev - cur <= tol * max(prev, 1e-30):
            converged = True
            break
    return CompletionResult(
        factors=factors, history=history, converged=converged, n_sweeps=sweeps
    )
