"""Pluggable completion-kernel backends behind a strategy registry.

The ALS and AMN optimizers are the hot path of every subsystem (runtime
sweeps, serve republish, stream refits).  Historically the kernel choice
was a hard-coded ``kernel="batched"|"reference"`` string compared in
``als.py``, ``amn.py`` and ``model.py``; this module replaces those
literals with *registered strategy objects* (the pattern of the batpred
optimizer-strategy table in SNIPPETS.md):

* :class:`KernelBackend` — the protocol: per-fit ``prepare_als`` /
  ``prepare_amn`` setup hooks, per-mode ``als_update`` / ``amn_update``
  solves, capability flags (``supports_plan_reuse``,
  ``supports_partial_fit``) and an availability probe.
* :func:`register_backend` — class decorator adding an implementation to
  the registry; new completion algorithms become one more entry instead
  of another fork of the dispatch code.
* :func:`get_backend` — direct lookup by name or alias; unknown names
  raise listing every registered backend.
* :func:`resolve_backend` — the selection *policy*:
  ``REPRO_KERNEL_BACKEND`` env override > explicit argument >
  :func:`select_best` (a tiny calibration fit at first use, cached per
  process).  Already-resolved :class:`KernelBackend` objects pass
  through untouched, so a fit resolves the policy exactly once.

Registered backends:

``reference``
    The seed's per-row loops — the ground truth the equivalence tests
    compare against.  Never auto-selected (``selectable=False``).
``numpy_batched`` (alias ``"batched"``)
    The vectorized plan-sharing path: one fit-wide
    :class:`~repro.core.completion.state.ObservationPlan`, zero-padded
    batched GEMM Grams, one batched LAPACK solve per mode.
``numba_jit``
    Optional: JIT-compiled segment-Gram ALS assembly and AMN
    Gauss-Newton inner loop.  Registered unconditionally so listings,
    tests and benchmarks can report it as *unavailable* rather than
    silently dropping it; usable only where :mod:`numba` imports
    (parity-checked at 1e-8 against ``numpy_batched`` in CI).
"""
from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

__all__ = [
    "ENV_VAR",
    "CALIBRATION_ENV_VAR",
    "KernelBackend",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "select_best",
    "backend_names",
    "registered_backends",
    "available_backends",
]

#: Environment variable forcing one backend through every subsystem
#: (fit, serve republish, stream refits, forked fleet workers).
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Environment variable overriding where :func:`select_best` persists its
#: calibration verdict (a small JSON sidecar).  Set to an empty string to
#: disable persistence entirely (the in-process cache still applies).
CALIBRATION_ENV_VAR = "REPRO_KERNEL_CALIBRATION"


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
    """``numpy_batched`` ALS context: gathered factor rows, cached per fit.

    ``rows[k]`` is ``U_k[indices[:, k]]`` in plan (observation) order,
    gathered for all modes at first use and then kept current:
    ``als_update`` re-gathers ``rows[j]`` right after solving mode ``j``,
    and every other write to the factors must be followed by
    :meth:`refresh` of the modes written.  A mode update multiplies the
    cached rows of the other modes, left to right in increasing mode (the
    order of :meth:`~repro.core.completion.state.ObservationPlan.khatri_rao`),
    and permutes the product once into mode-``j`` order, so an ALS sweep
    with its gauge fix costs about ``2d`` gathers and ``d`` permutations
    instead of ``d * (d - 1)``, with bitwise-identical design rows.
    :meth:`evaluate` reads the same rows.  A fit at another rank or on
    other factor arrays needs a new context.
    """

    def __init__(self, plan, values):
        self.plan = plan
        self.indices = plan.indices
        self.t_sorted = [plan.sorted_values(values, j) for j in range(plan.d)]
        self._cols = [np.ascontiguousarray(plan.indices[:, k])
                      for k in range(plan.d)]
        self.rows = None

    def refresh(self, factors, modes=None) -> None:
        if self.rows is None:
            shape = (self.plan.nnz, factors[0].shape[1])
            self.rows = [np.empty(shape) for _ in factors]
            self._product = np.empty(shape)
            self._sorted = np.empty(shape)
            modes = None
        for k in range(len(factors)) if modes is None else modes:
            np.take(factors[k], self._cols[k], axis=0, out=self.rows[k])

    def _rows_of(self, factors) -> list:
        if self.rows is None:
            self.refresh(factors)
        return self.rows

    def design_rows(self, factors, j: int) -> np.ndarray:
        """Khatri-Rao design rows of mode ``j`` in mode-``j`` sorted order."""
        others = [r for k, r in enumerate(self._rows_of(factors)) if k != j]
        K = others[0]
        if len(others) > 1:
            K = np.multiply(others[0], others[1], out=self._product)
            for r in others[2:]:
                K *= r
        return np.take(K, self.plan.mode(j).order, axis=0, out=self._sorted)

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
    supports_partial_fit
        Whether warm-start factors are honoured; a backend without it is
        refit cold by ``partial_fit`` and skipped by the warm-start
        parity tests.
    supports_column_penalties
        Whether ``als_update`` accepts a per-column regularization
        *vector* (shape ``(R,)``) in place of the scalar ``lam`` — the
        capability the regularized/adaptive ALS variants gate on.
    selectable
        Whether :func:`select_best` may auto-pick it.  The reference
        loops are correct but deliberately slow, so they are excluded.
    """

    name: str = ""
    aliases: tuple = ()
    supports_plan_reuse: bool = False
    supports_partial_fit: bool = True
    supports_column_penalties: bool = False
    selectable: bool = True

    # -- availability ----------------------------------------------------------

    def available(self) -> bool:
        """Probe whether this backend can run on this host."""
        return True

    def unavailable_reason(self) -> str | None:
        """Human-readable reason when :meth:`available` is ``False``."""
        return None

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

    # -- introspection ---------------------------------------------------------

    def describe(self) -> dict:
        """JSON-serializable capability/availability record."""
        return {
            "name": self.name,
            "aliases": list(self.aliases),
            "available": self.available(),
            "unavailable_reason": self.unavailable_reason(),
            "supports_plan_reuse": self.supports_plan_reuse,
            "supports_partial_fit": self.supports_partial_fit,
            "supports_column_penalties": self.supports_column_penalties,
            "selectable": self.selectable,
        }

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {}
_ALIASES: dict[str, str] = {}
_SELECTED: KernelBackend | None = None


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


def registered_backends() -> list:
    """Every registered backend object, available or not."""
    return list(_REGISTRY.values())


def available_backends() -> list:
    """The registered backends whose availability probe passes."""
    return [b for b in _REGISTRY.values() if b.available()]


def get_backend(spec, require_available: bool = True) -> KernelBackend:
    """Direct lookup by name/alias (no selection policy).

    Accepts an already-resolved :class:`KernelBackend` and returns it
    unchanged.  Unknown names raise a ``ValueError`` listing every
    registered backend; known-but-unavailable ones raise with the
    probe's reason unless ``require_available=False``.
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
    if require_available and not backend.available():
        raise ValueError(
            f"kernel backend {backend.name!r} is not available on this host"
            f" ({backend.unavailable_reason()})"
        )
    return backend


def resolve_backend(preferred=None) -> KernelBackend:
    """Apply the selection policy: env > explicit > calibrated best.

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


def _calibration_problem(rng):
    """A tiny deterministic completion problem for timing backends."""
    shape = (12, 10, 8)
    nnz = 400
    indices = np.stack(
        [rng.integers(0, n, size=nnz) for n in shape], axis=1
    ).astype(np.intp)
    values = np.exp(rng.standard_normal(nnz) * 0.25)
    return shape, indices, values


def _calibration_time(backend) -> float:
    """Wall-clock of one tiny ALS + AMN fit on ``backend`` (post-warmup)."""
    from repro.core.completion.als import complete_als
    from repro.core.completion.amn import complete_amn

    shape, indices, values = _calibration_problem(np.random.default_rng(0))

    def run():
        complete_als(
            shape, indices, np.log(values), rank=3, max_sweeps=2, tol=0.0,
            seed=0, kernel=backend,
        )
        complete_amn(
            shape, indices, values, rank=3, max_sweeps=1, tol=1e-6, seed=0,
            newton_iters=4, barrier_min=1.0, kernel=backend,
        )

    run()  # warmup: JIT compilation / first-touch allocations don't count
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def _calibration_path() -> Path | None:
    """Where the calibration sidecar lives (``None`` disables persistence)."""
    env = os.environ.get(CALIBRATION_ENV_VAR)
    if env is not None:
        return Path(env) if env else None
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "kernel_calibration.json"


def _calibration_key(candidates) -> str:
    """Sidecar key: one verdict per (host, candidate backend set).

    Keying on the candidate set means installing/removing an accelerated
    backend (e.g. numba appearing in a new venv) naturally invalidates
    the stored verdict instead of silently pinning a stale winner.
    """
    names = ",".join(sorted(b.name for b in candidates))
    return f"{platform.node() or 'unknown-host'}|{names}"


def _load_calibration(key: str) -> str | None:
    """Read the persisted winner for ``key``; any I/O problem reads as miss."""
    path = _calibration_path()
    if path is None:
        return None
    try:
        entry = json.loads(path.read_text()).get(key)
    except (OSError, ValueError):
        return None
    if isinstance(entry, dict):
        name = entry.get("backend")
        return name if isinstance(name, str) else None
    return None


def _store_calibration(key: str, backend: KernelBackend) -> None:
    """Merge the verdict into the sidecar; failures are non-fatal.

    Read-merge-replace so concurrent writers for *different* keys (e.g.
    two hosts sharing a home directory) at worst lose one another's
    update, never corrupt the file: the final rename is atomic.
    """
    path = _calibration_path()
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                data = {}
        except (OSError, ValueError):
            data = {}
        data[key] = {"backend": backend.name, "calibrated_at": time.time()}
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True))
        os.replace(tmp, path)
    except OSError:  # read-only FS, permission, quota... calibration is a cache
        return


def select_best(force: bool = False) -> KernelBackend:
    """The fastest available selectable backend (calibrated, cached).

    With a single candidate (the common case: ``numpy_batched`` on hosts
    without numba) no calibration runs at all.  Otherwise each candidate
    fits the same tiny ALS + AMN problem once after a warmup pass and
    the fastest wins; the choice is cached for the process *and*
    persisted to a small JSON sidecar keyed by (host, candidate set) —
    see :data:`CALIBRATION_ENV_VAR` — so forked fleet/queue/stream
    workers calibrate once per host instead of once per process.
    ``force=True`` bypasses both caches, recalibrates, and rewrites the
    sidecar; the ``REPRO_KERNEL_BACKEND`` env override bypasses
    selection entirely (see :func:`resolve_backend`).
    """
    global _SELECTED
    if _SELECTED is not None and not force:
        return _SELECTED
    candidates = [b for b in available_backends() if b.selectable]
    if not candidates:
        candidates = available_backends()
    if not candidates:  # pragma: no cover - reference is always available
        raise RuntimeError("no kernel backend is available")
    if len(candidates) == 1:
        _SELECTED = candidates[0]
        return _SELECTED
    key = _calibration_key(candidates)
    if not force:
        stored = _load_calibration(key)
        if stored is not None:
            by_name = {b.name: b for b in candidates}
            if stored in by_name:
                _SELECTED = by_name[stored]
                return _SELECTED
    _SELECTED = min(candidates, key=_calibration_time)
    _store_calibration(key, _SELECTED)
    return _SELECTED


# -- the reference backend (the seed's per-row loops) --------------------------


@register_backend
class ReferenceBackend(KernelBackend):
    """Per-row loops: one argsort and one small solve per row per sweep.

    The ground truth the equivalence suite compares every other backend
    against, and the slow baseline the throughput benchmark measures
    speedups over.  Excluded from auto-selection.
    """

    name = "reference"
    supports_plan_reuse = False
    supports_column_penalties = True
    selectable = False

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
    supports_column_penalties = True

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
        from repro.core.completion.als import _solve_rows_batched

        _solve_rows_batched(
            ctx.plan.mode(j), ctx.design_rows(factors, j), ctx.t_sorted[j],
            lam, factors[j], scale_rows,
        )
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


# -- the optional numba backend ------------------------------------------------

_NUMBA_KERNELS = None


def _load_numba_kernels():
    """Compile (once) and return the JIT kernels; raises without numba."""
    global _NUMBA_KERNELS
    if _NUMBA_KERNELS is not None:
        return _NUMBA_KERNELS
    import numba

    @numba.njit(cache=True)
    def als_systems(K, t, starts, counts, lam, scale_rows, G, b):
        # Segment-Gram assembly of every observed row's regularized
        # normal system, without zero padding: for segment i,
        # G_i = K_i^T K_i + diag, b_i = K_i^T t_i (the same n-fold as the
        # numpy path: (G/n + lam I) u = b/n  <=>  (G + n lam I) u = b).
        n_obs = starts.shape[0]
        R = K.shape[1]
        for i in range(n_obs):
            lo = starts[i]
            hi = lo + counts[i]
            for r in range(R):
                acc_b = 0.0
                for k in range(lo, hi):
                    acc_b += K[k, r] * t[k]
                b[i, r] = acc_b
                for c in range(r, R):
                    acc = 0.0
                    for k in range(lo, hi):
                        acc += K[k, r] * K[k, c]
                    G[i, r, c] = acc
                    G[i, c, r] = acc
            diag = lam * counts[i] if scale_rows else lam
            for r in range(R):
                G[i, r, r] += diag

    @numba.njit(cache=True)
    def amn_row_objective(K, logt, u, lam, eta, n_inv, lo, hi):
        R = u.shape[0]
        for r in range(R):
            if u[r] <= 0.0:
                return np.inf
        acc = 0.0
        for k in range(lo, hi):
            s = 0.0
            for r in range(R):
                s += K[k, r] * u[r]
            if s <= 0.0:
                return np.inf
            dlt = np.log(s) - logt[k]
            acc += dlt * dlt
        f = n_inv * acc
        for r in range(R):
            f += lam * u[r] * u[r] - eta * np.log(u[r])
        return f

    @numba.njit(cache=True)
    def amn_newton(K, logt, U, starts, counts, lam, eta, max_iter, tol,
                   pos_floor):
        # The reference per-row damped Gauss-Newton loop (_newton_row),
        # compiled: same Hessian model, fraction-to-the-boundary rule,
        # Armijo backtracking and stopping tests, so the trajectory
        # agrees with the reference/batched paths to rounding error.
        n_obs = starts.shape[0]
        R = U.shape[1]
        grad = np.empty(R)
        H = np.empty((R, R))
        trial = np.empty(R)
        for i in range(n_obs):
            lo = starts[i]
            hi = lo + counts[i]
            n_inv = 1.0 / counts[i]
            u = U[i].copy()
            f = amn_row_objective(K, logt, u, lam, eta, n_inv, lo, hi)
            for _it in range(max_iter):
                for r in range(R):
                    grad[r] = 0.0
                    for c in range(R):
                        H[r, c] = 0.0
                for k in range(lo, hi):
                    s = 0.0
                    for r in range(R):
                        s += K[k, r] * u[r]
                    rres = np.log(s) - logt[k]
                    for r in range(R):
                        ksr = K[k, r] / s
                        grad[r] += 2.0 * n_inv * ksr * rres
                        for c in range(r, R):
                            H[r, c] += 2.0 * n_inv * ksr * (K[k, c] / s)
                for r in range(R):
                    for c in range(r):
                        H[r, c] = H[c, r]
                for r in range(R):
                    grad[r] += 2.0 * lam * u[r] - eta / u[r]
                    H[r, r] += 2.0 * lam + eta / (u[r] * u[r])
                solved = True
                step = np.empty(R)
                try:
                    step = np.linalg.solve(H, -grad)
                except Exception:
                    solved = False
                if not solved:
                    for r in range(R):
                        step[r] = -grad[r] / (H[r, r] + 1e-12)
                # Fraction-to-the-boundary: stay strictly positive.
                alpha = 1.0
                for r in range(R):
                    if step[r] < 0.0:
                        bound = -0.995 * u[r] / step[r]
                        if bound < alpha:
                            alpha = bound
                g_dot_step = 0.0
                for r in range(R):
                    g_dot_step += grad[r] * step[r]
                improved = False
                for _bt in range(30):
                    for r in range(R):
                        trial[r] = u[r] + alpha * step[r]
                    f_trial = amn_row_objective(
                        K, logt, trial, lam, eta, n_inv, lo, hi
                    )
                    if f_trial <= f + 1e-4 * alpha * g_dot_step:
                        for r in range(R):
                            u[r] = trial[r]
                        f = f_trial
                        improved = True
                        break
                    alpha *= 0.5
                if not improved:
                    break
                step_sq = 0.0
                u_sq = 0.0
                for r in range(R):
                    step_sq += (alpha * step[r]) ** 2
                    u_sq += u[r] * u[r]
                if np.sqrt(step_sq) <= tol * (np.sqrt(u_sq) + 1e-30):
                    break
            for r in range(R):
                U[i, r] = u[r] if u[r] > pos_floor else pos_floor

    _NUMBA_KERNELS = (als_systems, amn_newton)
    return _NUMBA_KERNELS


@register_backend
class NumbaJITBackend(NumpyBatchedBackend):
    """JIT-compiled segment loops over the shared observation plan.

    Inherits the plan handling (and hence plan-reuse capability) of the
    numpy backend but replaces its padded-GEMM Gram assembly and masked
    batched Newton with compiled per-segment loops: no padding memory
    traffic for ALS, no frozen-row waste for AMN.  Only available where
    :mod:`numba` imports; the probe never imports numba at registry
    load time.
    """

    name = "numba_jit"
    aliases = ()

    def __init__(self):
        self._available: bool | None = None
        self._reason: str | None = None

    def available(self) -> bool:
        if self._available is None:
            try:
                import numba  # noqa: F401

                self._available = True
            except Exception as exc:  # ImportError, broken install, ...
                self._available = False
                self._reason = f"numba import failed: {exc}"
        return self._available

    def unavailable_reason(self) -> str | None:
        self.available()
        return self._reason

    @staticmethod
    def _segments(mp):
        starts = np.ascontiguousarray(mp.starts_obs, dtype=np.int64)
        counts = np.ascontiguousarray(mp.counts_obs, dtype=np.int64)
        return starts, counts

    def als_update(self, ctx, factors, j, lam, scale_rows):
        from repro.core.completion.state import solve_batched_spd

        if np.ndim(lam) > 0:
            # Column-wise penalty vectors: the compiled kernel takes a
            # scalar ``lam``; delegate to the (exactly equivalent) numpy
            # batched assembly rather than maintaining a second JIT
            # signature for the rare regularized path.
            NumpyBatchedBackend.als_update(self, ctx, factors, j, lam,
                                           scale_rows)
            return
        mp = ctx.plan.mode(j)
        if mp.n_obs == 0:
            return
        als_systems, _ = _load_numba_kernels()
        K = np.ascontiguousarray(ctx.plan.khatri_rao(factors, j))
        R = K.shape[1]
        starts, counts = self._segments(mp)
        G = np.empty((mp.n_obs, R, R))
        b = np.empty((mp.n_obs, R))
        als_systems(
            K, ctx.t_sorted[j], starts, counts, float(lam), bool(scale_rows),
            G, b,
        )
        factors[j][mp.obs_rows] = solve_batched_spd(G, b)
        ctx.refresh(factors, (j,))

    def amn_update(self, ctx, factors, j, lam, eta, max_iter, tol):
        from repro.core.completion.amn import _POS_FLOOR

        mp = ctx.plan.mode(j)
        if mp.n_obs == 0:
            return
        _, amn_newton = _load_numba_kernels()
        K = np.ascontiguousarray(ctx.plan.khatri_rao(factors, j))
        starts, counts = self._segments(mp)
        U = np.ascontiguousarray(factors[j][mp.obs_rows])
        amn_newton(
            K, ctx.logt_sorted[j], U, starts, counts, float(lam), float(eta),
            int(max_iter), float(tol), _POS_FLOOR,
        )
        factors[j][mp.obs_rows] = U
