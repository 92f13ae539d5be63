"""Multilinear interpolation of tensor elements (paper Eq. 5).

A configuration ``x`` falls between cell mid-points along each numerical
mode; its prediction is the multilinear blend of the ``2^q`` neighbouring
tensor-element estimates (``q`` = number of interpolating modes), with
weights computed in the transformed coordinate ``h_j`` (identity for
uniform spacing, log for logarithmic spacing).

Fringe rule (Section 5.1): when ``x_j`` lies between the domain edge and
the first/last mid-point, Eq. 5's weights are extended *signed* —
``w_lo = 1 - tau``, ``w_hi = tau`` with ``tau = (h - h_lo) / (h_hi - h_lo)``
— which is exactly linear extrapolation from the two nearest mid-points
(the absolute-value form in the paper's display equals this on the
interior and is replaced by linear extrapolation at the fringe, as the
paper prescribes).

Categorical modes never interpolate: the cell index is used directly.

Corner contract: :func:`interpolate` hands its evaluator the per-mode
corners ``(lo, hi, active)`` of every row, not a stacked index array, and
expects back the ``(2^q, n)`` corner values (bit ``b`` of the corner
index selects ``hi`` for the ``b``-th active mode).  A CP evaluator can
then gather each factor's rows once per mode and form all corner
products by doubling (:func:`repro.core.completion.cp_eval_corners`);
evaluators that need explicit multi-indices wrap an element map with
:func:`stacked`.
"""
from __future__ import annotations

import numpy as np

from repro.core.grid import TensorGrid

__all__ = ["interpolation_weights", "stacked", "interpolate"]


def interpolation_weights(grid: TensorGrid, X: np.ndarray, active=None):
    """Per-mode corner indices and weights for each configuration row.

    Parameters
    ----------
    grid
        The discretization.
    X
        Configurations, shape ``(n, d)``.
    active
        Optional boolean mask of modes to interpolate along; defaults to
        every mode that ``interpolates`` and has at least two cells.

    Returns
    -------
    lo, hi : (n, d) int arrays
        Lower/upper corner cell indices per mode (equal where inactive).
    w_lo, w_hi : (n, d) float arrays
        Corner weights (``w_hi = 0`` where inactive); signed at the fringe.
    active : (d,) bool array
        The resolved active-mode mask.
    """
    X = grid._check(X)
    n, d = X.shape
    if active is None:
        active = np.array(
            [m.interpolates and m.n_cells > 1 for m in grid.modes], dtype=bool
        )
    else:
        active = np.asarray(active, dtype=bool)
        if active.shape != (d,):
            raise ValueError(f"active must have shape ({d},)")
        for j, m in enumerate(grid.modes):
            if active[j] and (not m.interpolates or m.n_cells < 2):
                raise ValueError(f"mode {m.name!r} cannot interpolate")

    lo = np.empty((n, d), dtype=np.intp)
    hi = np.empty((n, d), dtype=np.intp)
    w_lo = np.ones((n, d))
    w_hi = np.zeros((n, d))
    for j, m in enumerate(grid.modes):
        if not active[j]:
            lo[:, j] = hi[:, j] = m.cell_of(X[:, j])
            continue
        mids = m.midpoints_h
        h = m.transform(X[:, j])
        i = np.clip(np.searchsorted(mids, h, side="right") - 1, 0, m.n_cells - 2)
        delta = mids[i + 1] - mids[i]
        tau = (h - mids[i]) / delta
        lo[:, j] = i
        hi[:, j] = i + 1
        w_lo[:, j] = 1.0 - tau
        w_hi[:, j] = tau
    return lo, hi, w_lo, w_hi, active


def stacked(element_eval):
    """Adapt a multi-index evaluator to :func:`interpolate`'s corner contract.

    ``element_eval`` maps multi-indices ``(m, d)`` to values ``(m,)`` (e.g.
    a Tucker evaluation).  The returned corner evaluator stacks all ``2^q``
    corner multi-indices corner-major into one ``(2^q * n, d)`` array,
    calls ``element_eval`` once on it, and reshapes to ``(2^q, n)``.
    """

    def corner_eval(lo, hi, active):
        n, d = lo.shape
        act = np.flatnonzero(active)
        C = 1 << len(act)
        idx = np.broadcast_to(lo, (C, n, d)).copy()
        corners = np.arange(C)
        for b, j in enumerate(act):
            idx[((corners >> b) & 1).astype(bool), :, j] = hi[:, j]
        vals = element_eval(idx.reshape(C * n, d))
        return np.asarray(vals, dtype=float).reshape(C, n)

    return corner_eval


def interpolate(grid: TensorGrid, corner_eval, X: np.ndarray, active=None) -> np.ndarray:
    """Evaluate Eq. 5: blend ``corner_eval`` over the neighbouring corners.

    ``corner_eval`` is invoked exactly *once* for the whole batch; the
    blend is then a single weighted reduction over the ``2^q`` corners.
    This keeps the whole prediction path inside vectorized kernels instead
    of ``2^q`` Python-level callback round-trips (see DESIGN.md).

    Parameters
    ----------
    corner_eval
        Callable ``corner_eval(lo, hi, active)`` taking the per-mode corner
        cells of :func:`interpolation_weights` (``lo``/``hi`` of shape
        ``(n, d)``, ``active`` of shape ``(d,)``) and returning the
        ``(2^q, n)`` tensor-element estimates of every corner, where bit
        ``b`` of the corner index selects ``hi`` for the ``b``-th active
        mode — e.g. log CP values for the interpolation model.  Wrap a
        multi-index evaluator with :func:`stacked`.  Values must be finite:
        zero-weight corners are not skipped, so a non-finite estimate would
        poison the blend.
    active
        Optional per-mode interpolation mask (see
        :func:`interpolation_weights`); Section 5.3 disables interpolation
        along extrapolated modes by passing ``False`` there.
    """
    X = grid._check(X)
    if len(X) == 0:
        # Empty batches are legal (a serving microbatch can flush empty on
        # shutdown); never invoke ``corner_eval`` on zero corners, since
        # extrapolating corner evaluators assume at least one row.
        return np.zeros(0)
    lo, hi, w_lo, w_hi, active = interpolation_weights(grid, X, active)
    # Eq. 5 weight products, doubled per active mode in the same bit order
    # as the corner values: corner c's weight is the product of its
    # per-mode weights in increasing mode order.
    w = np.ones((1, len(X)))
    for j in np.flatnonzero(active):
        w = np.concatenate([w * w_lo[:, j], w * w_hi[:, j]])
    vals = np.asarray(corner_eval(lo, hi, active), dtype=float).reshape(w.shape)
    return np.einsum("cn,cn->n", w, vals)
