"""Pluggable completion-kernel backends behind a strategy registry.

The ALS and AMN optimizers are the hot path of every subsystem (runtime
sweeps, serve republish, stream refits).  Historically the kernel choice
was a hard-coded ``kernel="batched"|"reference"`` string compared in
``als.py``, ``amn.py`` and ``model.py``; this module replaces those
literals with *registered strategy objects* (the pattern of the batpred
optimizer-strategy table in SNIPPETS.md):

* :class:`KernelBackend` — the protocol: per-fit ``prepare_als`` /
  ``prepare_amn`` setup hooks, per-mode ``als_update`` / ``amn_update``
  solves, and the ``supports_plan_reuse`` capability flag.
* :func:`register_backend` — class decorator adding an implementation to
  the registry; new completion algorithms become one more entry instead
  of another fork of the dispatch code.
* :func:`get_backend` — direct lookup by name or alias; unknown names
  raise listing every registered backend.
* :func:`resolve_backend` — the selection *policy*:
  ``REPRO_KERNEL_BACKEND`` env override > explicit argument >
  :func:`select_best` (``numpy_batched``).  Already-resolved
  :class:`KernelBackend` objects pass through untouched, so a fit
  resolves the policy exactly once.

Registered backends:

``reference``
    The seed's per-row loops — the ground truth the equivalence tests
    compare against.  Never the default.
``numpy_batched`` (alias ``"batched"``)
    The vectorized plan-sharing path: one fit-wide
    :class:`~repro.core.completion.state.ObservationPlan`, zero-padded
    batched GEMM Grams, one batched LAPACK solve per mode.  The default.
"""
from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ENV_VAR",
    "KernelBackend",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "select_best",
    "backend_names",
]

#: Environment variable forcing one backend through every subsystem
#: (fit, serve republish, stream refits, forked fleet workers).
ENV_VAR = "REPRO_KERNEL_BACKEND"


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


class KernelBackend:
    """One completion-kernel strategy (ALS mode solve + AMN mode Newton).

    Subclasses plug in at the per-mode update level; the optimizer loops
    in :mod:`~repro.core.completion.als` / ``amn`` keep ownership of
    everything algorithmic that is backend-independent (sweep order,
    gauge rebalancing, objective history, the barrier schedule), which is
    what makes the 1e-8 equivalence contract between backends testable.

    Class attributes
    ----------------
    name
        Registry key (also what manifests/stats record).
    aliases
        Extra lookup names (``numpy_batched`` keeps the historical
        ``"batched"`` spelling working for callers and old pickles).
    supports_plan_reuse
        Whether the backend consumes a fit-wide
        :class:`~repro.core.completion.state.ObservationPlan` — the
        capability :meth:`repro.core.model.CPRModel._run_completion`
        gates plan caching on (previously a ``== "batched"`` literal).
    """

    name: str = ""
    aliases: tuple = ()
    supports_plan_reuse: bool = False

    # -- ALS -------------------------------------------------------------------

    def prepare_als(self, shape, indices, values, plan=None):
        """Per-fit setup; returns the context ``als_update`` consumes.

        The returned context is a ``_FitContext``: it exposes
        ``.indices`` (the index array the caller should evaluate
        objectives against) so plan-canonical and as-given layouts stay
        interchangeable, and the ``refresh``/``evaluate`` hooks the ALS
        loops call.  ``plan`` is honoured only by plan-reuse backends;
        others ignore it.
        """
        raise NotImplementedError

    def als_update(self, ctx, factors, j, lam, scale_rows) -> None:
        """One ALS mode update: re-solve every observed row of ``U_j``."""
        raise NotImplementedError

    # -- AMN -------------------------------------------------------------------

    def prepare_amn(self, shape, indices, logt, plan=None):
        """Per-fit setup for the interior-point solver (cf. ``prepare_als``)."""
        raise NotImplementedError

    def amn_update(self, ctx, factors, j, lam, eta, max_iter, tol) -> None:
        """Damped Gauss-Newton on every observed row of mode ``j``."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {}
_ALIASES: dict[str, str] = {}


def register_backend(cls):
    """Class decorator: instantiate ``cls`` and add it to the registry."""
    backend = cls()
    if not backend.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    if backend.name in _REGISTRY or backend.name in _ALIASES:
        raise ValueError(f"kernel backend {backend.name!r} already registered")
    for alias in backend.aliases:
        if alias in _REGISTRY or alias in _ALIASES:
            raise ValueError(f"kernel backend alias {alias!r} already taken")
    _REGISTRY[backend.name] = backend
    for alias in backend.aliases:
        _ALIASES[alias] = backend.name
    return cls


def backend_names() -> tuple:
    """Registered backend names (the single source of kernel truth)."""
    return tuple(_REGISTRY)


def get_backend(spec) -> KernelBackend:
    """Direct lookup by name/alias (no selection policy).

    Accepts an already-resolved :class:`KernelBackend` and returns it
    unchanged.  Unknown names raise a ``ValueError`` listing every
    registered backend.
    """
    if isinstance(spec, KernelBackend):
        return spec
    name = _ALIASES.get(spec, spec)
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {spec!r}; registered backends: "
            f"{', '.join(backend_names())}"
        )
    return backend


def resolve_backend(preferred=None) -> KernelBackend:
    """Apply the selection policy: env > explicit > :func:`select_best`.

    ``REPRO_KERNEL_BACKEND`` outranks the explicit argument by design:
    it is the single operator knob that forces one backend through every
    layer (CLI entry points, stream refits, forked fleet workers) in one
    place.  Callers holding an already-resolved :class:`KernelBackend`
    object (the model resolves once per fit; tests pin backends under
    comparison) bypass the policy entirely.
    """
    if isinstance(preferred, KernelBackend):
        return preferred
    env = os.environ.get(ENV_VAR)
    if env:
        return get_backend(env)
    if preferred is not None:
        return get_backend(preferred)
    return select_best()


def select_best() -> KernelBackend:
    """The default backend: ``numpy_batched``.

    ``reference`` is correct but deliberately slow, so it is never the
    default; the ``REPRO_KERNEL_BACKEND`` env override and an explicit
    ``kernel=`` bypass this entirely (see :func:`resolve_backend`).
    """
    return _REGISTRY["numpy_batched"]


# -- the reference backend (the seed's per-row loops) --------------------------


@register_backend
class ReferenceBackend(KernelBackend):
    """Per-row loops: one argsort and one small solve per row per sweep.

    The ground truth the equivalence suite compares every other backend
    against, and the slow baseline the throughput benchmark measures
    speedups over.  Never the default.
    """

    name = "reference"

    def prepare_als(self, shape, indices, values, plan=None):
        # ``plan`` is a plan-reuse capability; the per-row loop has no
        # use for it and ignores it (the model never passes one here).
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


@register_backend
class NumpyBatchedBackend(KernelBackend):
    """Plan-sharing vectorized path (the previous ``kernel="batched"``).

    One fit-wide :class:`~repro.core.completion.state.ObservationPlan`
    supplies per-mode sorted layouts; mode updates are segment
    reductions plus one batched LAPACK solve.  Keeps the historical
    ``"batched"`` name as an alias so existing call sites and persisted
    model configs resolve here.
    """

    name = "numpy_batched"
    aliases = ("batched",)
    supports_plan_reuse = True

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
