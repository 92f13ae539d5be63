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
* ``numpy_batched``'s fit context caches every factor's gathered rows,
  ``rows[k] = U_k[indices[:, k]]``: a mode update multiplies the cached
  rows of the other modes instead of gathering them again, and re-gathers
  only ``rows[j]`` after its solve; the per-sweep objective reads the
  same rows (``ctx.evaluate``).  The context also keeps a running prefix
  ``rows[0] * ... * rows[j-1]``, extended by one mode per update of a
  sweep, so mode ``j`` multiplies only the modes after ``j`` onto it.
  Any other write to the factors must be reported with
  ``ctx.refresh(factors, modes)`` — here ``_rebalance`` after each sweep,
  in ``adaptive.py`` also the nonnegative projection — or later design
  rows and objectives read stale rows; a refresh of a mode the prefix
  covers empties it.  Other contexts treat ``refresh`` as a no-op.
* Each mode's solve runs on a :class:`_ModeWorkspace` the context builds
  once per fit: the padded design block, Gram stack, right-hand sides and
  regularization diagonal live in fixed buffers written with ``out=``,
  and the design rows are permuted straight into the padding source, so
  a mode update allocates almost nothing.  The arithmetic is the same
  operations in the same order as the plain batched solve, so fits are
  bitwise identical to it (``tests/test_als_workspace_oracle.py`` keeps
  that solve as its oracle).
* The ``reference`` backend retains the seed's per-row loop (one
  ``argsort`` and one small solve per row per sweep) — the ground truth
  the equivalence tests compare against, and the slow baseline the
  throughput benchmark measures speedups over.
* Rows with no observations are left at their current value (they are
  determined only by the prior/initialization, as in the paper's setup).
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.completion.backends import resolve_backend
from repro.core.completion.objectives import ls_objective
from repro.core.completion.state import (
    CompletionResult,
    ObservationPlan,
    init_factors,
    solve_batched_spd,
)
from repro.utils.rng import as_generator

__all__ = ["complete_als", "als_update_mode"]


def _solve_rows(K, t, row_idx, n_rows, lam, out, scale_rows):
    """Solve the per-row regularized normal equations for one mode.

    ``K`` (m, R) and ``t`` (m,) are the design rows / targets, ``row_idx``
    the mode index of each observation.  Results are written into ``out``
    (the factor matrix) in place for rows that have observations.

    With ``scale_rows=True`` the data term is averaged over the row's
    observation set (the paper's row objective); with ``False`` it is the
    plain sum, making every mode update an exact block-coordinate-descent
    step on the global objective of Eq. 3 (hence provably monotone).

    ``lam`` may be a scalar or a per-column vector of shape ``(R,)``
    (column-wise penalties): ``lam * eye`` broadcasts to ``diag(lam)``.
    """
    R = K.shape[1]
    order = np.argsort(row_idx, kind="stable")
    sorted_rows = row_idx[order]
    Ks = K[order]
    ts = t[order]
    # Segment boundaries of each distinct row.
    bounds = np.searchsorted(sorted_rows, np.arange(n_rows + 1))
    eye = np.eye(R)
    for i in range(n_rows):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue  # unobserved row: keep current value
        Ki = Ks[lo:hi]
        ti = ts[lo:hi]
        ni = (hi - lo) if scale_rows else 1.0
        G = (Ki.T @ Ki) / ni + lam * eye
        b = (Ki.T @ ti) / ni
        try:
            out[i] = scipy.linalg.solve(G, b, assume_a="pos")
        except np.linalg.LinAlgError:
            out[i] = np.linalg.lstsq(G, b, rcond=None)[0]


class _ModeWorkspace:
    """One mode's batched normal equations, with buffers fixed for a fit.

    The batched equivalent of :func:`_solve_rows` for mode ``mp.j`` (a
    :class:`~repro.core.completion.state.ModePlan`) at rank ``rank``.
    The caller writes the mode's Khatri-Rao design rows, in the plan's
    sorted order, into :attr:`K`; :meth:`solve` then builds every
    observed row's ``R x R`` normal system in one shot and solves the
    whole stack with one batched LAPACK call.  Everything that stays
    fixed across sweeps is set up once here: the targets repeated per
    column, the padded block and its transpose view, the Gram stack and a
    strided view of its diagonals, the right-hand sides, and the
    regularization diagonal per ``(lam, scale_rows)``.  :attr:`K` is the
    head of a source array whose trailing row stays zero, so padding is
    one ``take`` over the plan's slot map with no copy in between.
    """

    def __init__(self, mp, t_sorted, rank: int):
        self.mp = mp
        self.t_sorted = t_sorted
        nnz = len(t_sorted)
        self._src = np.zeros((nnz + 1, rank))
        self.K = self._src[:-1]
        self._diags: dict = {}
        if mp.n_obs == 0 or not mp.pad_feasible:
            return
        self._slots = mp.pad_slots()
        padded = np.empty((mp.n_obs, mp.max_count, rank))
        self._padded = padded
        self._padded_flat = padded.reshape(-1, rank)
        self._padded_t = padded.transpose(0, 2, 1)
        self._gram = np.empty((mp.n_obs, rank, rank))
        self._gram_diag = self._gram.reshape(-1, rank * rank)[:, :: rank + 1]
        # The targets repeated across the R columns: ``K * t`` is then one
        # flat elementwise product (the same products as broadcasting a
        # column, without the short inner loops).
        self._t_rows = np.repeat(t_sorted[:, None], rank, axis=1)
        self._kt = np.empty((nnz, rank))
        self._b = np.empty((mp.n_obs, rank))
        # The factor rows the solve writes: a plain slice when every row
        # is observed (the same copy, without a fancy-index scatter).
        self._solved = (
            slice(None) if mp.n_obs == mp.n_rows else mp.obs_rows
        )

    def _diagonal(self, lam, scale_rows):
        """The regularization added to the stacked Gram diagonals.

        ``scale_rows`` divides the data term by the row's observation
        count; scaling the whole system by ``n_i`` instead folds that into
        the regularization diagonal (identical solution, two fewer
        full-stack passes): (G/n + lam I) u = b/n  <=>  (G + n lam I) u = b.
        ``lam`` may be a per-column vector (shape (R,)) — the column-wise
        penalties of the regularized variant — in which case the diagonal
        add is ``n_i * lam_r`` per (row, column).
        """
        # ``isinstance`` first: the usual Python-float lam skips ``np.ndim``.
        vector = not isinstance(lam, float) and np.ndim(lam) > 0
        if vector:
            lam = np.array(lam, dtype=float)
            key = (lam.tobytes(), scale_rows)
        else:
            key = (float(lam), scale_rows)
        diag = self._diags.get(key)
        if diag is None:
            counts = self.mp.counts_obs
            if vector:
                diag = counts[:, None] * lam[None, :] if scale_rows else lam
            else:
                diag = np.asarray(lam * counts if scale_rows else lam)
                diag = diag.reshape(-1, 1)
            self._diags[key] = diag
        return diag

    def solve(self, lam, scale_rows, out) -> None:
        """Re-solve the observed rows of ``out`` (the factor) from :attr:`K`."""
        mp = self.mp
        if mp.n_obs == 0:
            return
        if not mp.pad_feasible:
            # Heavily skewed multiplicities: zero-padding would dwarf O(nnz).
            # Solve per row on the (already sorted) segments instead.
            _solve_rows(
                self.K, self.t_sorted, mp.sorted_indices[:, mp.j], mp.n_rows,
                lam, out, scale_rows,
            )
            return
        self._src.take(self._slots, axis=0, out=self._padded_flat)
        gram = np.matmul(self._padded_t, self._padded, out=self._gram)
        np.multiply(self.K, self._t_rows, out=self._kt)
        b = np.add.reduceat(self._kt, mp.starts_obs, axis=0, out=self._b)
        self._gram_diag += self._diagonal(lam, scale_rows)
        out[self._solved] = solve_batched_spd(gram, b)


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
