"""The two completion-kernel backends ALS and AMN dispatch their mode updates to.

The ALS and AMN optimizers are the hot path of every subsystem (runtime
sweeps, serve republish, stream refits).  Their loops own everything
algorithmic (sweep order, gauge rebalancing, objective history, the
barrier schedule); a backend supplies only the per-fit ``prepare_als`` /
``prepare_amn`` setup and the per-mode ``als_update`` / ``amn_update``
solves.  There are two:

``reference``
    The seed's per-row loops — the ground truth the equivalence tests
    compare against.  Never the default.
``numpy_batched`` (also ``"batched"``, the name persisted model configs
carry)
    The vectorized plan-sharing path: one fit-wide
    :class:`~repro.core.completion.state.ObservationPlan`, zero-padded
    batched GEMM Grams, one batched LAPACK solve per mode.  The default.

:func:`resolve_backend` maps ``kernel=`` to a backend object: ``None``
gives :func:`select_best`, a name is looked up, and a backend object
passes through unchanged, so a fit resolves exactly once.
"""
from __future__ import annotations

import numpy as np

__all__ = ["resolve_backend", "select_best"]


class _FitContext:
    """Per-fit state a backend's prepare hook hands its updates.

    The ALS loops report every write they make to the factors outside
    ``als_update`` (gauge rebalancing, nonnegative projection) through
    :meth:`refresh`, and evaluate the model at the fit's observations
    through :meth:`evaluate`, so a backend that caches factor-derived
    state can keep it coherent.  This base context caches nothing:
    :meth:`refresh` is a no-op and :meth:`evaluate` gathers afresh.
    """

    def __init__(self, **attrs):
        self.__dict__.update(attrs)

    def refresh(self, factors, modes=None) -> None:
        """``factors[k]`` for ``k`` in ``modes`` (all when ``None``) changed."""

    def evaluate(self, factors) -> np.ndarray:
        """The CP model at ``self.indices``, shape ``(nnz,)``."""
        from repro.core.completion.state import cp_eval

        return cp_eval(factors, self.indices)


class _ALSRowCache(_FitContext):
    """``numpy_batched`` ALS context: gathered factor rows and mode workspaces.

    ``rows[k]`` is ``U_k[indices[:, k]]`` in plan (observation) order,
    gathered for all modes at first use and then kept current:
    ``als_update`` re-gathers ``rows[j]`` right after solving mode ``j``,
    and every other write to the factors must be followed by
    :meth:`refresh` of the modes written.  :meth:`evaluate` reads the
    same rows.

    Mode ``j``'s design rows are the product of the other modes' rows,
    left to right in increasing mode (the order of
    :meth:`~repro.core.completion.state.ObservationPlan.khatri_rao`).
    The context keeps a running prefix ``rows[0] * ... * rows[p-1]``:
    the update of mode ``j`` first extends it to ``p = j`` from the
    current rows, then multiplies only ``rows[j+1:]`` onto it, and
    permutes the product once into mode-``j`` order.  A sweep in
    increasing mode thus extends the prefix by one mode per update
    instead of recomputing ``d - 2`` products.  A :meth:`refresh` of any
    mode the prefix covers empties it (so does a request for a shorter
    prefix), and the next update rebuilds it from the current rows.  The
    products are the same multiplications in the same order as a fresh
    gather, so design rows are bitwise identical to one.

    Each mode's normal equations run on a
    :class:`~repro.core.completion.als._ModeWorkspace` built at the
    mode's first update, whose buffers live as long as the context.  A
    fit at another rank or on other factor arrays needs a new context.
    """

    def __init__(self, plan, values):
        self.plan = plan
        self.indices = plan.indices
        self.t_sorted = [plan.sorted_values(values, j) for j in range(plan.d)]
        self._cols = [np.ascontiguousarray(plan.indices[:, k])
                      for k in range(plan.d)]
        self.rows = None
        self._workspaces = [None] * plan.d
        self._covered = 0  # leading modes in the running prefix

    def refresh(self, factors, modes=None) -> None:
        if self.rows is None:
            shape = (self.plan.nnz, factors[0].shape[1])
            self.rows = [np.empty(shape) for _ in factors]
            self._product = np.empty(shape)
            self._prefix = np.empty(shape)
            modes = None
        for k in range(len(factors)) if modes is None else modes:
            factors[k].take(self._cols[k], axis=0, out=self.rows[k])
            if k < self._covered:
                self._covered = 0

    def _rows_of(self, factors) -> list:
        if self.rows is None:
            self.refresh(factors)
        return self.rows

    def workspace(self, j: int):
        """Mode ``j``'s normal-equation workspace (built on first use)."""
        ws = self._workspaces[j]
        if ws is None:
            from repro.core.completion.als import _ModeWorkspace

            ws = _ModeWorkspace(
                self.plan.mode(j), self.t_sorted[j], self.rows[0].shape[1]
            )
            self._workspaces[j] = ws
        return ws

    def _prefix_rows(self, j: int):
        """``rows[0] * ... * rows[j-1]``, or ``None`` for ``j == 0``."""
        rows = self.rows
        if self._covered > j:
            self._covered = 0
        for k in range(max(self._covered, 1), j):
            if k == 1:
                np.multiply(rows[0], rows[1], out=self._prefix)
            else:
                self._prefix *= rows[k]
        self._covered = j
        if j < 2:
            return rows[0] if j else None
        return self._prefix

    def design_rows(self, factors, j: int) -> np.ndarray:
        """Khatri-Rao design rows of mode ``j`` in mode-``j`` sorted order.

        Written into (and returned as) the mode workspace's ``K``.
        """
        rows = self._rows_of(factors)
        K = self._prefix_rows(j)
        rest = rows[j + 1:]
        if K is None:
            K, rest = rest[0], rest[1:]
        if rest:
            K = np.multiply(K, rest[0], out=self._product)
            for r in rest[1:]:
                K *= r
        ws = self.workspace(j)
        return K.take(self.plan.mode(j).order, axis=0, out=ws.K)

    def evaluate(self, factors) -> np.ndarray:
        rows = self._rows_of(factors)
        prod = np.multiply(rows[0], rows[1], out=self._product)
        for r in rows[2:]:
            prod *= r
        return prod.sum(axis=1)


# -- the reference backend (the seed's per-row loops) --------------------------


class ReferenceBackend:
    """Per-row loops: one argsort and one small solve per row per sweep.

    The ground truth the equivalence suite compares ``numpy_batched``
    against, and the slow baseline the throughput benchmark measures
    speedups over.  Never the default.
    """

    name = "reference"

    def prepare_als(self, shape, indices, values, plan=None):
        # The per-row loop has no use for the fit-wide plan.
        return _FitContext(shape=shape, indices=indices, values=values)

    def als_update(self, ctx, factors, j, lam, scale_rows):
        from repro.core.completion.als import _solve_rows
        from repro.core.completion.state import khatri_rao_rows

        K = khatri_rao_rows(factors, ctx.indices, skip=j)
        _solve_rows(
            K, ctx.values, ctx.indices[:, j], factors[j].shape[0], lam,
            factors[j], scale_rows,
        )

    def prepare_amn(self, shape, indices, logt, plan=None):
        return _FitContext(shape=shape, indices=indices, logt=logt)

    def amn_update(self, ctx, factors, j, lam, eta, max_iter, tol):
        from repro.core.completion.amn import _newton_row
        from repro.core.completion.state import khatri_rao_rows

        indices, logt = ctx.indices, ctx.logt
        K = khatri_rao_rows(factors, indices, skip=j)
        row_idx = indices[:, j]
        order = np.argsort(row_idx, kind="stable")
        sorted_rows = row_idx[order]
        Ks = K[order]
        ls = logt[order]
        n_rows = factors[j].shape[0]
        bounds = np.searchsorted(sorted_rows, np.arange(n_rows + 1))
        U = factors[j]
        for i in range(n_rows):
            lo, hi = bounds[i], bounds[i + 1]
            if lo == hi:
                continue
            U[i], _ = _newton_row(
                Ks[lo:hi], ls[lo:hi], U[i].copy(), lam, eta, max_iter, tol
            )


# -- the vectorized numpy backend ----------------------------------------------


class NumpyBatchedBackend:
    """Plan-sharing vectorized path (the previous ``kernel="batched"``).

    One fit-wide :class:`~repro.core.completion.state.ObservationPlan`
    supplies per-mode sorted layouts; mode updates are segment
    reductions plus one batched LAPACK solve.
    """

    name = "numpy_batched"

    def _plan_for(self, shape, indices, plan):
        from repro.core.completion.state import ObservationPlan

        if plan is None:
            return ObservationPlan(shape, indices)
        if not plan.matches(shape, indices):
            raise ValueError(
                "plan does not describe these observations; rebuild it "
                "(ObservationPlan.extended) when the index set changes"
            )
        return plan

    def prepare_als(self, shape, indices, values, plan=None):
        return _ALSRowCache(self._plan_for(shape, indices, plan), values)

    def als_update(self, ctx, factors, j, lam, scale_rows):
        ctx.design_rows(factors, j)
        ctx.workspace(j).solve(lam, scale_rows, factors[j])
        ctx.refresh(factors, (j,))

    def prepare_amn(self, shape, indices, logt, plan=None):
        plan = self._plan_for(shape, indices, plan)
        d = len(shape)
        return _FitContext(
            plan=plan,
            indices=plan.indices,
            logt_sorted=[plan.sorted_values(logt, j) for j in range(d)],
        )

    def amn_update(self, ctx, factors, j, lam, eta, max_iter, tol):
        from repro.core.completion.amn import _newton_rows_batched

        _newton_rows_batched(
            ctx.plan, j, factors, ctx.logt_sorted[j], lam, eta, max_iter, tol
        )


_BACKENDS = {
    "reference": ReferenceBackend(),
    "numpy_batched": NumpyBatchedBackend(),
}
# Model configs persisted before the rename carry ``kernel="batched"``.
_BACKENDS["batched"] = _BACKENDS["numpy_batched"]


def select_best():
    """The default backend: ``numpy_batched``.

    ``reference`` is correct but deliberately slow, so it is never the
    default.
    """
    return _BACKENDS["numpy_batched"]


def resolve_backend(kernel=None):
    """The backend for ``kernel=``: a name, a backend object, or ``None``.

    ``None`` gives :func:`select_best`; a backend object is returned
    unchanged (tests pin subclasses); an unknown name raises a
    ``ValueError`` listing the valid ones.
    """
    if kernel is None:
        return select_best()
    if not isinstance(kernel, str):
        return kernel
    try:
        return _BACKENDS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {kernel!r}; valid names: "
            f"{', '.join(_BACKENDS)}"
        ) from None
