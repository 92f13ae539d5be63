"""Shared CP-decomposition state: initialization, evaluation, bookkeeping.

A rank-``R`` CP decomposition of an order-``d`` tensor is a list of ``d``
factor matrices ``U_j`` of shape ``(I_j, R)``; element ``(i_1, ..., i_d)``
is modeled as ``sum_r prod_j U_j[i_j, r]`` (paper Eq. 2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.utils.rng import as_generator

__all__ = [
    "init_factors",
    "init_positive_factors",
    "cp_eval",
    "cp_eval_corners",
    "cp_full",
    "cp_size_bytes",
    "khatri_rao_rows",
    "CompletionResult",
    "ObservationPlan",
    "ModePlan",
    "solve_batched_spd",
]


def init_factors(shape, rank: int, rng=None, noise: float = 0.3) -> list:
    """Near-constant factor matrices for least-squares completion.

    Entries are ``rank**(-1/d) * (1 + noise * N(0, 1))``: every rank-1
    component's ``d``-factor product is O(1/R) with O(noise) relative
    jitter, so the CP sum starts O(1) for any order and rank.

    Why not plain Gaussians: (a) zero-mean entries make ``d``-factor
    products vanish for large ``d``, so the ridge term collapses ALS onto
    the constant model; (b) log execution-time tensors are dominantly
    *additive* (multiplicative times), and additive structure lives in the
    near-constant-factor region of CP space — starting there avoids the
    poor local minima random init falls into on high-order tensors (in our
    AMG reproduction this init cuts the converged ALS objective by ~30x).
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rng = as_generator(rng)
    base = float(rank) ** (-1.0 / max(len(shape), 1))
    return [
        base * (1.0 + noise * rng.standard_normal((int(I), rank))) for I in shape
    ]


def init_positive_factors(shape, rank: int, rng=None, mean: float = 1.0) -> list:
    """Strictly positive factors for the interior-point (AMN) model.

    Entries are lognormal with small dispersion around
    ``(mean / rank)**(1/d)`` so the initial CP model output is close to
    ``mean`` — used with times normalized by their geometric mean.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if mean <= 0:
        raise ValueError("mean must be positive")
    rng = as_generator(rng)
    d = len(shape)
    base = (mean / rank) ** (1.0 / d)
    return [
        base * np.exp(rng.normal(0.0, 0.1, size=(int(I), rank)))
        for I in shape
    ]


def cp_eval(factors: list, indices: np.ndarray) -> np.ndarray:
    """Evaluate the CP model at multi-indices, shape ``(m, d)`` -> ``(m,)``.

    Vectorized gather-and-product: O(m * d * R) with no Python-level loop
    over observations.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2 or indices.shape[1] != len(factors):
        raise ValueError(
            f"indices must be (m, {len(factors)}), got {indices.shape}"
        )
    prod = factors[0][indices[:, 0]].copy()
    for j in range(1, len(factors)):
        prod *= factors[j][indices[:, j]]
    return prod.sum(axis=1)


def cp_eval_corners(lo_rows: list, hi_rows: list) -> np.ndarray:
    """Evaluate the CP model at every corner of per-row cell lattices.

    ``lo_rows[j]`` holds the ``(n, R)`` factor rows of mode ``j``'s lower
    corner; ``hi_rows[j]`` holds its upper corner's rows for an
    interpolating mode and is ``None`` for a fixed one.  With ``q``
    interpolating modes the result is ``(2^q, n)``: bit ``b`` of the
    corner index selects the upper rows of the ``b``-th interpolating mode
    (the :func:`repro.core.interp.interpolate` corner order).

    The product is built by doubling in increasing mode order: a fixed
    mode multiplies the running ``(2^b, n, R)`` product in place, an
    interpolating one extends it to ``[P * lo ; P * hi]``.  Each corner
    thus sees the same multiplications in the same order as
    :func:`cp_eval` on its stacked multi-index, and the same reduction
    over ``R``, so the values are bitwise identical while every factor row
    is gathered once instead of once per corner.
    """
    q = sum(h is not None for h in hi_rows)
    n, R = lo_rows[0].shape
    prod = np.empty((1 << q, n, R))
    prod[0] = lo_rows[0]
    size = 1
    if hi_rows[0] is not None:
        prod[1] = hi_rows[0]
        size = 2
    for lo, hi in zip(lo_rows[1:], hi_rows[1:]):
        head = prod[:size]
        if hi is not None:
            np.multiply(head, hi, out=prod[size : 2 * size])
            size *= 2
        head *= lo
    return prod.sum(axis=-1)


def khatri_rao_rows(
    factors: list, indices: np.ndarray, skip: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows of the Khatri-Rao product excluding mode ``skip``.

    Row ``k`` is ``prod_{j != skip} U_j[indices[k, j], :]`` — the design
    matrix row of observation ``k`` in the mode-``skip`` least-squares
    subproblem.  Shape ``(m, R)``.  ``out``, when given, receives the result
    in place (hot-path buffer reuse; must be ``(m, R)`` float64).
    """
    first = 0 if skip != 0 else 1
    if first >= len(factors):
        raise ValueError("need at least two modes")
    if out is None:
        K = factors[first][indices[:, first]].copy()
    else:
        K = np.take(factors[first], indices[:, first], axis=0, out=out)
    for j in range(len(factors)):
        if j == skip or j == first:
            continue
        K *= factors[j][indices[:, j]]
    return K


def solve_batched_spd(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stacked SPD systems ``G[i] @ x[i] = b[i]``.

    ``G`` is ``(n, R, R)``, ``b`` is ``(n, R)``.  One LAPACK round-trip for
    the whole stack; a (rare) singular member triggers a per-system
    fallback mirroring the reference row solver: ``scipy`` positive solve,
    then least squares.
    """
    try:
        return np.linalg.solve(G, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for i in range(len(b)):
            try:
                out[i] = scipy.linalg.solve(G[i], b[i], assume_a="pos")
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(G[i], b[i], rcond=None)[0]
        return out


class ModePlan:
    """Sorted-observation layout of one tensor mode (see ObservationPlan).

    All per-observation arrays handed to the segment reductions must be in
    *sorted order* (``arr[order]`` of the original observation order); the
    Khatri-Rao rows produced by :meth:`ObservationPlan.khatri_rao` (and by
    the ``numpy_batched`` ALS context's ``design_rows``) already are.
    Rows with no observations are excluded from every compacted array —
    results index the ``obs_rows`` subset.

    Attributes
    ----------
    order
        Stable argsort of the mode's observation indices, ``(nnz,)``.
    sorted_indices
        ``indices[order]`` — full multi-indices in segment-contiguous
        order, ``(nnz, d)``.
    bounds, counts
        Segment bounds ``(n_rows + 1,)`` and per-row observation counts.
    observed, obs_rows
        Boolean mask / compacted index list of rows with >= 1 observation.
    counts_obs
        ``counts[obs_rows]`` as float (per-row averaging divisors).
    seg, offsets
        For each sorted observation: its row's position in ``obs_rows``
        and its position within its segment (padding coordinates).
    """

    def __init__(self, indices: np.ndarray, j: int, n_rows: int):
        row_idx = indices[:, j]
        self.j = j
        self.n_rows = int(n_rows)
        self.order = np.argsort(row_idx, kind="stable")
        self.sorted_indices = indices[self.order]
        sorted_rows = self.sorted_indices[:, j]
        self.bounds = np.searchsorted(sorted_rows, np.arange(n_rows + 1))
        self.counts = np.diff(self.bounds)
        self.observed = self.counts > 0
        self.obs_rows = np.flatnonzero(self.observed)
        self.n_obs = len(self.obs_rows)
        self.counts_obs = self.counts[self.obs_rows].astype(float)
        self.starts_obs = self.bounds[:-1][self.obs_rows]
        self.max_count = int(self.counts_obs.max()) if self.n_obs else 0
        self.seg = np.repeat(np.arange(self.n_obs), self.counts[self.obs_rows])
        self.offsets = np.arange(len(row_idx)) - self.bounds[:-1][sorted_rows]
        self._pad_buffers: dict = {}
        # Zero-padding costs O(n_obs * max_count); with heavily skewed
        # multiplicities (one row owning most observations) that can dwarf
        # O(nnz) and exhaust memory.  Callers consult this flag and fall
        # back to per-row segment solves when padding is wasteful.
        nnz = len(row_idx)
        self.pad_feasible = (
            self.n_obs * self.max_count <= max(8 * nnz, 1 << 16)
        )
        self._pad_source = None

    # -- segment reductions (ragged rows, no Python loop over rows) --------

    def seg_sum(self, arr: np.ndarray) -> np.ndarray:
        """Per-row sums of a sorted per-observation array ``(nnz, ...)``."""
        return np.add.reduceat(arr, self.starts_obs, axis=0)

    def seg_min(self, arr: np.ndarray) -> np.ndarray:
        """Per-row minima of a sorted per-observation array ``(nnz,)``."""
        return np.minimum.reduceat(arr, self.starts_obs, axis=0)

    def pad(self, arr: np.ndarray, slot: str = "a") -> np.ndarray:
        """Lay a sorted per-observation array out in padded segments.

        ``(nnz, R)`` -> ``(n_obs, max_count, R)`` with zero padding.  The
        array is copied into a source buffer one row longer than ``nnz``
        whose last row stays zero, and one ``take`` over a precomputed
        slot map fills every padded slot (a real row or that zero row):
        several times faster than a two-index scatter.  Buffers are cached
        per (slot, trailing shape); distinct ``slot`` names yield distinct
        buffers for callers that need two padded arrays alive at once.
        """
        key = (slot,) + arr.shape[1:]
        bufs = self._pad_buffers.get(key)
        if bufs is None:
            bufs = (
                np.zeros((len(arr) + 1,) + arr.shape[1:]),
                np.empty((self.n_obs, self.max_count) + arr.shape[1:]),
            )
            self._pad_buffers[key] = bufs
        src, buf = bufs
        src[:-1] = arr
        np.take(src, self.pad_slots(), axis=0,
                out=buf.reshape((-1,) + arr.shape[1:]))
        return buf

    def pad_slots(self) -> np.ndarray:
        """Padded slot -> sorted observation it holds, ``(n_obs * max_count,)``.

        Padding slots hold ``nnz``, one past the last observation: a
        source array with a trailing zero row pads with zeros under one
        ``take``.  Built on first use, then cached.
        """
        if self._pad_source is None:
            nnz = len(self.seg)
            self._pad_source = np.full(self.n_obs * self.max_count, nnz)
            self._pad_source[self.seg * self.max_count + self.offsets] = (
                np.arange(nnz)
            )
        return self._pad_source

    def gram(self, K: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Stacked per-row normal matrices ``G[i] = K_i^T diag(w_i) K_i``.

        ``K`` is the sorted design block ``(nnz, R)``; the ragged segments
        are zero-padded to ``(n_obs, max_count, R)`` and reduced with one
        batched GEMM — orders of magnitude less Python/dispatch overhead
        than a per-row loop, and far less memory traffic than an
        ``(nnz, R, R)`` outer-product intermediate.
        """
        P = self.pad(K)
        if weights is None:
            return np.matmul(P.transpose(0, 2, 1), P)
        Pw = self.pad(K * weights[:, None], slot="b")
        return np.matmul(P.transpose(0, 2, 1), Pw)


class ObservationPlan:
    """Per-fit cache of mode-sorted observation layouts and work buffers.

    The completion optimizers repeatedly need, for every mode ``j``, the
    observations grouped by their mode-``j`` index.  The seed implementation
    re-ran an ``argsort`` per mode per sweep (and per barrier level in AMN);
    the plan computes one stable argsort + segment bounds per mode *once*
    and shares them across ALS/CCD/SGD/AMN sweeps.  It also owns reusable
    Khatri-Rao buffers so the hot loops allocate nothing per sweep.
    """

    def __init__(self, shape, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.intp)
        if indices.ndim != 2 or indices.shape[1] != len(shape):
            raise ValueError(
                f"indices must be (nnz, {len(shape)}), got {indices.shape}"
            )
        self.shape = tuple(int(I) for I in shape)
        self.indices = indices
        self.d = len(self.shape)
        self.nnz = len(indices)
        self._modes: list[ModePlan | None] = [None] * self.d
        self._kr_buffers: dict = {}
        self._observed_masks: dict = {}

    def observed_mask(self, j: int) -> np.ndarray:
        """Boolean mask of mode-``j`` rows with >= 1 observation.

        One O(nnz) bincount, cached; cheaper than :meth:`mode` for callers
        (CCD) that need only the mask, not the sorted layout.
        """
        mp = self._modes[j]
        if mp is not None:
            return mp.observed
        mask = self._observed_masks.get(j)
        if mask is None:
            mask = (
                np.bincount(self.indices[:, j], minlength=self.shape[j]) > 0
            )
            self._observed_masks[j] = mask
        return mask

    def mode(self, j: int) -> ModePlan:
        """The (lazily built) sorted layout of mode ``j``."""
        mp = self._modes[j]
        if mp is None:
            mp = ModePlan(self.indices, j, self.shape[j])
            self._modes[j] = mp
        return mp

    def _buffer(self, name: str, rank: int) -> np.ndarray:
        buf = self._kr_buffers.get((name, rank))
        if buf is None:
            buf = np.empty((self.nnz, rank))
            self._kr_buffers[(name, rank)] = buf
        return buf

    def khatri_rao(self, factors: list, j: int) -> np.ndarray:
        """Khatri-Rao design rows of mode ``j`` in *sorted* order.

        Equivalent to ``khatri_rao_rows(factors, indices, j)[order]`` but
        gathers directly on the pre-sorted multi-indices (no reorder pass)
        into a plan-owned buffer (no per-sweep allocation).
        """
        mp = self.mode(j)
        idx = mp.sorted_indices
        rank = factors[0].shape[1]
        K = self._buffer("kr", rank)
        scratch = self._buffer("kr_scratch", rank)
        first = 0 if j != 0 else 1
        np.take(factors[first], idx[:, first], axis=0, out=K)
        for j2 in range(self.d):
            if j2 == j or j2 == first:
                continue
            np.take(factors[j2], idx[:, j2], axis=0, out=scratch)
            K *= scratch
        return K

    def sorted_values(self, values: np.ndarray, j: int) -> np.ndarray:
        """``values[order_j]`` — targets in mode-``j`` segment order."""
        return values[self.mode(j).order]

    # -- streaming reuse (incremental refits) ------------------------------

    def matches(self, shape, indices: np.ndarray) -> bool:
        """Whether this plan describes exactly ``(shape, indices)``.

        A plan depends only on the observation *index set*, never on the
        observed values, so a streaming update whose new measurements all
        land in already-observed cells can reuse the plan (argsorts,
        segment bounds, Khatri-Rao and padding buffers) verbatim.
        """
        indices = np.asarray(indices)
        if tuple(int(I) for I in shape) != self.shape:
            return False
        if indices.shape != self.indices.shape:
            return False
        return indices is self.indices or bool(
            np.array_equal(indices, self.indices)
        )

    def extended(self, shape, indices: np.ndarray) -> "ObservationPlan":
        """This plan when the observation set is unchanged, else a fresh one.

        The invalidation point of the streaming path: new observed cells
        (or a widened grid) change segment bounds and buffer sizes, so
        everything is rebuilt; an unchanged index set returns ``self`` and
        the warm-start sweep allocates nothing.
        """
        if self.matches(shape, indices):
            return self
        return ObservationPlan(shape, np.asarray(indices, dtype=np.intp))


def cp_full(factors: list) -> np.ndarray:
    """Materialize the dense tensor represented by ``factors`` (tests only)."""
    shape = tuple(U.shape[0] for U in factors)
    n = int(np.prod(shape, dtype=np.int64))
    if n > 16 * 1024 * 1024:
        raise MemoryError(f"refusing to materialize {n} elements")
    rank = factors[0].shape[1]
    out = np.zeros(shape)
    for r in range(rank):
        term = factors[0][:, r]
        for U in factors[1:]:
            term = np.multiply.outer(term, U[:, r])
        out += term
    return out


def cp_size_bytes(factors: list) -> int:
    """Model size in bytes: ``8 * R * sum_j I_j`` (paper Section 3.2)."""
    return int(sum(U.size for U in factors) * 8)


def cp_component_norms(factors: list) -> np.ndarray:
    """Magnitude of each rank-1 component: ``prod_j ||U_j[:, r]||_2``.

    The pruning signal of the adaptive ALS variant: a component whose
    column-norm product is negligible relative to the largest component
    contributes nothing to the CP sum and only inflates the served model
    (Figure 7's size metric).  After gauge rebalancing (``_rebalance`` in
    ``als.py``) every mode shares the same per-component column norm, so
    this is that norm to the ``d``-th power.
    """
    norms = np.stack([np.linalg.norm(U, axis=0) for U in factors])  # (d, R)
    return norms.prod(axis=0)


@dataclass
class CompletionResult:
    """Output of a completion optimizer.

    Attributes
    ----------
    factors
        The optimized factor matrices.
    history
        Objective value after each sweep/epoch (for convergence tests:
        ALS/CCD histories are monotonically non-increasing).
    converged
        Whether the relative objective decrease fell below the tolerance
        before the sweep limit.
    n_sweeps
        Number of sweeps/epochs executed.
    """

    factors: list
    history: list = field(default_factory=list)
    converged: bool = False
    n_sweeps: int = 0

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]
