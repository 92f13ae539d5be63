"""Objective functions for completion monitoring (paper Eq. 3).

The regularized objective is

    g(U_1..U_d) = lam * sum_j ||U_j||_F^2 + sum_{i in Omega} phi(t_i, that_i)

with ``phi`` the element-wise loss: squared error for ALS/CCD/SGD (applied
to log-transformed values by the interpolation model) or squared log ratio
``(log t - log that)^2`` for the AMN extrapolation model.
"""
from __future__ import annotations

import numpy as np

from repro.core.completion.state import cp_eval

__all__ = [
    "ls_objective",
    "logq_objective",
    "frobenius_penalty",
    "columnwise_penalty",
]


def frobenius_penalty(factors: list, lam: float) -> float:
    """Regularization term ``lam * sum_j ||U_j||_F^2``."""
    return float(lam * sum(float(np.sum(U * U)) for U in factors))


def columnwise_penalty(factors: list, lam) -> float:
    """Per-component regularization ``sum_j sum_r lam_r ||U_j[:, r]||^2``.

    ``lam`` is a per-column vector of shape ``(R,)`` (a uniform vector
    reproduces :func:`frobenius_penalty` exactly).  Graded penalties —
    weights growing with the column index — bias ALS toward low effective
    rank: trailing components must earn their residual reduction against
    a stiffer shrinkage, which is the "practical regularization" recipe of
    Jiang et al. (arXiv:2103.16852) the adaptive kernel's pruning exploits.
    """
    lam = np.asarray(lam, dtype=float)
    return float(
        sum(float(np.sum(lam * np.sum(U * U, axis=0))) for U in factors)
    )


def ls_objective(factors, indices, values, lam: float, pred=None) -> float:
    """Eq. 3 with least-squares loss, scaled by ``1/|Omega|``.

    Returns ``(sum_Omega (t - that)^2 + lam * sum_j ||U_j||_F^2) / |Omega|``.
    The uniform ``1/|Omega|`` scaling keeps histories comparable across
    observation sets while preserving exact monotonicity of block
    coordinate descent (ALS with ``scale_rows=False``, CCD), since a
    positive constant scaling cannot change the ordering of values.
    ``pred``, when given, is the model at ``indices`` already evaluated
    (an ALS fit context's ``evaluate``) and replaces ``cp_eval``.
    """
    if pred is None:
        pred = cp_eval(factors, indices)
    resid = pred - values
    n = len(values)
    return float((np.sum(resid**2) + frobenius_penalty(factors, lam)) / n)


def logq_objective(factors, indices, values, lam: float, pred=None) -> float:
    """Eq. 3 with MLogQ2 loss, scaled by ``1/|Omega|``.

    Requires a strictly positive model; non-positive predictions are
    clipped to a tiny constant, making the objective finite but terrible —
    useful for detecting interior-point violations in tests.  ``pred``
    is as in :func:`ls_objective` (an AMN fit context's ``evaluate``).
    """
    if pred is None:
        pred = cp_eval(factors, indices)
    pred = np.maximum(pred, 1e-300)
    q = np.log(pred) - np.log(values)
    n = len(values)
    return float((np.sum(q**2) + frobenius_penalty(factors, lam)) / n)
