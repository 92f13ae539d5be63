"""Tensor-completion optimizers for CP decomposition (paper Section 4.2).

* :func:`complete_als` — alternating least squares on a (log-transformed)
  least-squares loss; the paper's interpolation workhorse (Section 5.2).
* :func:`complete_ccd` — cyclic coordinate descent; ALS with per-column
  scalar updates (factor-``R`` cheaper per sweep, slower convergence).
* :func:`complete_sgd` — minibatch stochastic gradient descent.
* :func:`complete_amn` — alternating minimization via (Gauss-)Newton with a
  log-barrier interior-point scheme, minimizing the MLogQ2 loss under
  strictly positive factors; the paper's extrapolation model (Section 5.3).

The ALS/AMN hot loops dispatch their per-mode solves to one of two
kernel backends (:mod:`repro.core.completion.backends`), chosen by
``kernel=``: ``reference`` (per-row loops, the equivalence oracle) or
``numpy_batched`` (vectorized plan-sharing path, also ``"batched"``, the
default).
"""
from repro.core.completion.backends import resolve_backend, select_best
from repro.core.completion.state import (
    CompletionResult,
    ModePlan,
    ObservationPlan,
    cp_component_norms,
    cp_eval,
    cp_eval_corners,
    cp_full,
    cp_size_bytes,
    init_factors,
    init_positive_factors,
    khatri_rao_rows,
    solve_batched_spd,
)
from repro.core.completion.adaptive import (
    AdaptiveCompletionResult,
    complete_als_adaptive,
    complete_als_regularized,
)
from repro.core.completion.als import complete_als
from repro.core.completion.amn import complete_amn
from repro.core.completion.ccd import complete_ccd
from repro.core.completion.sgd import complete_sgd

OPTIMIZERS = {
    "als": complete_als,
    "als_adaptive": complete_als_adaptive,
    "als_reg": complete_als_regularized,
    "ccd": complete_ccd,
    "sgd": complete_sgd,
    "amn": complete_amn,
}

__all__ = [
    "init_factors",
    "init_positive_factors",
    "cp_component_norms",
    "cp_eval",
    "cp_eval_corners",
    "cp_full",
    "cp_size_bytes",
    "khatri_rao_rows",
    "CompletionResult",
    "AdaptiveCompletionResult",
    "ModePlan",
    "ObservationPlan",
    "solve_batched_spd",
    "complete_als",
    "complete_als_adaptive",
    "complete_als_regularized",
    "complete_ccd",
    "complete_sgd",
    "complete_amn",
    "OPTIMIZERS",
    "resolve_backend",
    "select_best",
]
