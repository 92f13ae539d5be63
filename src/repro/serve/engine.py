"""Batched prediction front-end for one fitted model.

The engine is the serving hot path: a query batch is validated once
(:meth:`~repro.core.CPRModel.validate_queries`), then flows through the
model's fused corner-blend evaluation in **one vectorized call per
chunk** — there is no per-point Python loop anywhere between the JSON
boundary and the BLAS kernels.  Chunking (``max_batch``) only bounds the
transient ``2^q x n x R`` corner-product memory for pathological batch
sizes; within a chunk everything is a single corner evaluation.

Every flush is timed, so :meth:`stats` doubles as the microbatching
telemetry: under a coalescing server, ``queries / batches`` is the
effective batch size the batcher achieved.
"""
from __future__ import annotations

import inspect
import threading
import time

import numpy as np

from repro.core.model import rank_attribution
from repro.faults import fault_point

__all__ = ["PredictionEngine"]


def _served_rank(model) -> int | None:
    """Integer CP rank the model serves at, or ``None`` when rank-less."""
    info = rank_attribution(model)
    rank = info.get("adapted_rank", info.get("rank"))
    return rank if isinstance(rank, int) else None


def _supports_skip_validation(model) -> bool:
    """Whether ``model.predict`` accepts the ``validate=False`` fast path."""
    try:
        return "validate" in inspect.signature(model.predict).parameters
    except (TypeError, ValueError):
        return False


class PredictionEngine:
    """Validate and answer query batches against one fitted model.

    Parameters
    ----------
    model
        Any fitted model exposing ``predict`` over a ``(n, d)`` batch.
        Models with ``validate_queries`` (CPR/Tucker) get request
        validation *before* the kernels run; others fall back to their
        own ``predict``-time checks.
    name
        Label reported in :meth:`stats` (typically ``name@vN``).
    max_batch
        Upper bound on rows per vectorized call; larger batches are
        split into consecutive chunks (still no per-point loop).
    """

    def __init__(self, model, name: str = "model", max_batch: int = 65536):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.model = model
        self.name = name
        self.max_batch = int(max_batch)
        # Rows are validated exactly once at the engine boundary; models
        # exposing predict(validate=...) (CPR/Tucker) skip their internal
        # re-validation on every call/chunk.
        self._predict_kwargs = (
            {"validate": False} if _supports_skip_validation(model) else {}
        )
        self._lock = threading.Lock()
        self._batches = 0
        self._queries = 0
        self._total_s = 0.0
        self._max_s = 0.0
        self._last_s = 0.0
        self._last_n = 0

    # -- queries ---------------------------------------------------------------

    def validate(self, X) -> np.ndarray:
        """Normalize/reject a raw query batch (before any kernel runs)."""
        hook = getattr(self.model, "validate_queries", None)
        if callable(hook):
            return hook(X)
        X = np.asarray(X, dtype=float)
        return X[:, None] if X.ndim == 1 else X

    def predict(self, X, *, validate: bool = True) -> np.ndarray:
        """Predictions for a batch; records latency.

        Pass ``validate=False`` when the rows were already validated —
        the server does per-request validation before microbatching, so
        re-scanning the concatenated flush batch would be pure overhead
        on the hot path.
        """
        fault_point("engine.predict")
        model, kw = self.model, self._predict_kwargs
        if validate:
            X = self.validate(X)
        else:
            X = np.atleast_2d(np.asarray(X, dtype=float))
        t0 = time.perf_counter()
        if len(X) <= self.max_batch:
            y = np.asarray(model.predict(X, **kw), dtype=float)
        else:
            parts = [
                np.asarray(
                    model.predict(X[i : i + self.max_batch], **kw), dtype=float
                )
                for i in range(0, len(X), self.max_batch)
            ]
            y = np.concatenate(parts)
        elapsed = time.perf_counter() - t0
        with self._lock:
            self._batches += 1
            self._queries += len(X)
            self._total_s += elapsed
            self._max_s = max(self._max_s, elapsed)
            self._last_s = elapsed
            self._last_n = len(X)
        return y

    # -- telemetry -------------------------------------------------------------

    def stats(self) -> dict:
        """Lifetime latency/throughput counters (JSON-serializable)."""
        model = self.model
        with self._lock:
            batches, queries = self._batches, self._queries
            total_s, max_s = self._total_s, self._max_s
            last_s, last_n = self._last_s, self._last_n
        return {
            "model": self.name,
            # Which kernel backend fitted the active model (None for
            # models without backend attribution, e.g. baselines).
            "fit_backend": getattr(model, "fit_backend_", None),
            # CP rank the active model actually serves (the adapted rank
            # for ``rank="auto"`` fits; None for rank-less baselines).
            "rank": _served_rank(model),
            "batches": batches,
            "queries": queries,
            "total_seconds": total_s,
            "mean_batch_ms": 1e3 * total_s / batches if batches else 0.0,
            "max_batch_ms": 1e3 * max_s,
            "last_batch_ms": 1e3 * last_s,
            "last_batch_size": last_n,
            "mean_batch_size": queries / batches if batches else 0.0,
            "queries_per_second": queries / total_s if total_s > 0 else 0.0,
        }

    def __repr__(self):
        return (
            f"PredictionEngine({self.name!r}, max_batch={self.max_batch}, "
            f"queries={self._queries})"
        )
