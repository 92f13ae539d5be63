"""Alternating least squares for tensor completion (paper Section 4.2.1).

ALS sweeps over modes; for mode ``j`` it fixes all other factors and solves,
independently for every row ``i`` of ``U_j``, the regularized linear
least-squares problem

    min_u  (1/|Omega_i|) * sum_{k in Omega_i} (t_k - K_k . u)^2 + lam ||u||^2

where ``K_k`` is the Khatri-Rao design row of observation ``k`` (the
element-wise product of the other factors' rows).  Each row solve is an
``R x R`` positive-definite system.

Implementation notes (hot path, vectorized per the hpc-parallel guides):

* Mode updates are dispatched to a kernel backend
  (:mod:`repro.core.completion.backends`).  The default backend,
  ``numpy_batched``, assembles *all* of a mode's regularized normal
  systems at once (observations grouped per
  row by the fit-wide :class:`~repro.core.completion.state.ObservationPlan`,
  ragged per-row Gram matrices reduced with one zero-padded batched GEMM,
  the ``(n_rows, R, R)`` stack solved by a single batched LAPACK call).
* ``numpy_batched``'s fit context (``_RowCache``, shared with AMN)
  caches every factor's gathered rows, ``rows[k] = U_k[indices[:, k]]``:
  a mode update multiplies the cached rows of the other modes instead of
  gathering them again, and re-gathers only ``rows[j]`` after its solve;
  the per-sweep objective reads the same rows (``ctx.evaluate``).  The context also keeps a running prefix
  ``rows[0] * ... * rows[j-1]``, extended by one mode per update of a
  sweep, so mode ``j`` multiplies only the modes after ``j`` onto it.
  Any other write to the factors must be reported with
  ``ctx.refresh(factors, modes)`` — here ``_rebalance`` after each sweep,
  in ``adaptive.py`` also the nonnegative projection — or later design
  rows and objectives read stale rows; a refresh of a mode the prefix
  covers empties it.  Other contexts treat ``refresh`` as a no-op.
* Each mode's solve is the ridge step of a
  :class:`~repro.core.completion.state._ModeWorkspace` the context builds
  once per fit (the one normal-equation path of ALS, AMN and Tucker): the
  padded design block, Gram stack, right-hand sides and regularization
  diagonal live in fixed buffers written with ``out=``, and the design
  rows are permuted straight into the padding source, so a mode update
  allocates almost nothing.  A mode whose skewed multiplicities make
  padding too large takes the workspace's per-row fallback.  The
  arithmetic is the same operations in the same order as the plain
  batched solve, so fits are bitwise identical to it
  (``tests/test_als_workspace_oracle.py`` keeps that solve as its
  oracle).
* The ``reference`` backend retains the seed's per-row loop (one
  ``argsort`` and one small solve per row per sweep) — the ground truth
  the equivalence tests compare against, and the slow baseline the
  throughput benchmark measures speedups over.
* Rows with no observations are left at their current value (they are
  determined only by the prior/initialization, as in the paper's setup).
"""
from __future__ import annotations

import numpy as np

from repro.core.completion.backends import resolve_backend
from repro.core.completion.objectives import ls_objective
from repro.core.completion.state import (
    CompletionResult,
    ObservationPlan,
    init_factors,
)
from repro.utils.rng import as_generator

__all__ = ["complete_als", "als_update_mode"]


def _rebalance(factors) -> None:
    """Equalize per-component column norms across modes (in place).

    A CP tensor is invariant to rescaling a component's column in one mode
    and inversely in another; ALS drifts toward unbalanced factors, which
    hurts conditioning and makes unobserved-cell products extreme.  Each
    component's columns are rescaled to share the geometric-mean norm.
    """
    d = len(factors)
    # The column 2-norms, as ``np.linalg.norm(U, axis=0)`` computes them.
    norms = np.stack(
        [np.sqrt(np.add.reduce(U * U, axis=0)) for U in factors]
    )  # (d, R)
    norms = np.maximum(norms, 1e-300)
    target = np.exp(np.log(norms).mean(axis=0))  # geometric mean per component
    for j, U in enumerate(factors):
        U *= target / norms[j]


def als_update_mode(
    factors,
    indices,
    values,
    j: int,
    lam: float,
    scale_rows: bool = True,
    kernel=None,
    plan: ObservationPlan | None = None,
) -> None:
    """One ALS mode update (in place): re-solve every row of ``U_j``.

    ``kernel`` is a backend name or object resolved through
    :func:`repro.core.completion.backends.resolve_backend` (``None``
    picks the default).  ``plan`` lets ``numpy_batched`` share a
    fit-wide :class:`ObservationPlan` (built on the fly when omitted).
    """
    backend = resolve_backend(kernel)
    shape = [U.shape[0] for U in factors]
    ctx = backend.prepare_als(shape, indices, values, plan=plan)
    backend.als_update(ctx, factors, j, lam, scale_rows)


def complete_als(
    shape,
    indices,
    values,
    rank: int,
    regularization: float = 1e-5,
    max_sweeps: int = 100,
    tol: float = 1e-5,
    seed=None,
    factors: list | None = None,
    scale_rows: bool = True,
    kernel=None,
    plan: ObservationPlan | None = None,
) -> CompletionResult:
    """Fit a rank-``rank`` CP decomposition to observed entries with ALS.

    Parameters
    ----------
    shape
        Tensor shape ``(I_1, ..., I_d)``.
    indices, values
        Observed multi-indices ``(nnz, d)`` and their values ``(nnz,)``.
        For the paper's interpolation model the values are log-transformed
        cell means; this routine is agnostic to the transformation.
    regularization
        ``lam`` in Eq. 3 (paper sweeps ``1e-6 .. 1e-3``).
    max_sweeps, tol
        Sweep limit (paper: 100) and relative-decrease stopping tolerance.
    factors
        Warm-start factors (mutated); fresh Gaussian init when ``None``.
    scale_rows
        ``True`` (paper): per-row objectives average over the row's
        observations, which rescales the effective regularization per row.
        ``False``: plain block coordinate descent on Eq. 3, whose
        ``history`` is then monotonically non-increasing.
    kernel
        Backend name (``"reference"``, ``"numpy_batched"``) or backend
        object; ``None`` picks ``numpy_batched`` (see
        :mod:`repro.core.completion.backends`).
    plan
        Optional pre-built :class:`ObservationPlan` for ``(shape,
        indices)``; used by ``numpy_batched``, ignored by ``reference``.
        Streaming callers whose new observations landed in
        already-observed cells pass the previous fit's plan so the
        warm-start sweep reuses its argsorts and buffers; a plan for a
        different observation set raises.

    Returns
    -------
    CompletionResult
        ``history[k]`` is the Eq. 3 objective (mean data term) after sweep
        ``k``; monotone non-increasing when ``scale_rows=False``.
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
    backend = resolve_backend(kernel)
    if factors is None:
        factors = init_factors(shape, rank, rng=as_generator(seed))
    else:
        # The buffered gathers require float64; coerce warm starts.
        factors = [np.asarray(U, dtype=float) for U in factors]
    ctx = backend.prepare_als(shape, indices, values, plan=plan)

    def objective() -> float:
        return ls_objective(factors, ctx.indices, values, regularization,
                            pred=ctx.evaluate(factors))

    history = [objective()]
    converged = False
    sweeps = 0
    for sweep in range(max_sweeps):
        for j in range(d):
            backend.als_update(ctx, factors, j, regularization, scale_rows)
        # Gauge fix: balancing column norms leaves the CP tensor unchanged
        # and weakly decreases the Frobenius penalty, so monotonicity of the
        # scale_rows=False history is preserved.
        _rebalance(factors)
        ctx.refresh(factors)
        sweeps = sweep + 1
        history.append(objective())
        prev, cur = history[-2], history[-1]
        if prev - cur <= tol * max(prev, 1e-30):
            converged = True
            break
    return CompletionResult(
        factors=factors, history=history, converged=converged, n_sweeps=sweeps
    )


#: Plan-gating metadata the model layer consults (see
#: ``CPRModel._run_completion``): this optimizer takes ``kernel``/``plan``.
complete_als.accepts_kernel = True
