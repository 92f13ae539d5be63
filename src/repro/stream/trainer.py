"""Per-flush refit policy: cheap warm-start update vs full refit.

The streaming regime of "Low-CP-rank Tensor Completion via Practical
Regularization" (Jiang et al., PAPERS.md): most arriving observations
land inside the fitted model's discretization, often in cells that
already hold a running mean — folding them in is a counts-weighted
tensor merge plus a few warm-start sweeps from the current factors,
reusing the fit-wide :class:`~repro.core.completion.ObservationPlan`
when the observed index set did not change.  A full refit (fresh grid
ascertained from the retention window, fresh factors) is reserved for
the two events a warm start cannot absorb:

* **domain widening** — a new configuration falls outside the grid
  (``partial_fit`` would clip it into an edge cell, silently biasing
  the boundary), and
* **drift** — the :class:`~repro.stream.drift.DriftMonitor`'s rolling
  prequential error stayed above threshold.
"""
from __future__ import annotations

import time

import numpy as np

from repro.faults import fault_point

__all__ = ["IncrementalTrainer", "known_cell_mask", "model_rank"]


def model_rank(model) -> int | None:
    """Served CP rank of a fitted model (the adapted rank when the fit
    adapted it), or ``None`` for models without an integer rank."""
    r = getattr(model, "adapted_rank_", None)
    if r is None:
        r = getattr(model, "rank", None)
        if not isinstance(r, (int, np.integer)):
            return None
    return int(r)


def known_cell_mask(model, X: np.ndarray) -> np.ndarray:
    """Which rows of ``X`` land in cells the model has already observed.

    The deduplication test of the streaming policy: a row whose cell is
    already in the observed tensor's index set Ω contributes only a
    counts-weighted mean update — the observation *plan* (and hence the
    whole warm-start setup) is reusable verbatim when every pending row
    is known.  Rows must lie in the grid's domain: numerical modes clip
    out-of-range values into edge cells, but a categorical mode *raises*
    on an out-of-range index, so callers filter on ``grid_.in_domain``
    first (as :meth:`IncrementalTrainer.classify` does).
    """
    idx = model.grid_.cell_indices(X)
    flat = np.ravel_multi_index(idx.T, model.grid_.shape)
    observed = np.ravel_multi_index(
        model.tensor_.indices.T, model.grid_.shape
    )
    return np.isin(flat, observed)


class IncrementalTrainer:
    """Own the live model; decide partial vs full refit per flush.

    Parameters
    ----------
    model_factory
        Zero-argument callable returning an *unfitted* model (e.g. a
        ``CPRModel`` with the streaming hyper-parameters).  Full refits
        build a fresh model so the grid is re-ascertained from current
        data.
    monitor
        Optional :class:`~repro.stream.drift.DriftMonitor` consulted
        before each flush; it is reset after every full refit.  A
        :class:`~repro.stream.pipeline.StreamSession` requires one and
        scores its prequential drift signal into it.
    partial_sweeps
        Sweep budget forwarded to ``partial_fit`` (``None`` uses the
        model's default: ``max_sweeps // 5``).
    failure_backoff_s, max_backoff_s
        Graceful-degradation policy: a failed update keeps the incumbent
        model serving, marks the trainer :attr:`degraded`, and defers
        further update *attempts* (``action: "deferred"``) for an
        exponentially growing backoff window starting at
        ``failure_backoff_s`` and capped at ``max_backoff_s`` — a
        diverging refit must not burn a core retrying every batch while
        the incumbent is still answering queries.  The first successful
        update clears the degradation.
    """

    def __init__(
        self,
        model_factory,
        monitor=None,
        partial_sweeps: int | None = None,
        failure_backoff_s: float = 1.0,
        max_backoff_s: float = 30.0,
    ):
        self.model_factory = model_factory
        self.monitor = monitor
        self.partial_sweeps = partial_sweeps
        self.failure_backoff_s = max(float(failure_backoff_s), 0.0)
        self.max_backoff_s = max(float(max_backoff_s), self.failure_backoff_s)
        self.model = None
        self.n_fit = 0
        self.n_partial = 0
        self.n_refit = 0
        self.n_failed = 0
        self.n_rank_changes = 0
        self.refit_reasons: dict = {}
        self._consecutive_failures = 0
        self._backoff_until = 0.0
        # A partial_fit that died mid-sweep may have torn the model's
        # factors; the next attempt must rebuild from the retention
        # window rather than warm-start from suspect state.
        self._force_refit = False

    # -- lifecycle -------------------------------------------------------------

    def adopt(self, model) -> None:
        """Resume from an existing fitted model (e.g. loaded from a registry)."""
        self.model = model

    @property
    def degraded(self) -> bool:
        """Whether the last update attempt failed (incumbent still serving)."""
        return self._consecutive_failures > 0

    def _note_failure(self, stage: str, exc: Exception, n_new: int) -> dict:
        """Record a failed update; arm the backoff; keep the incumbent."""
        self.n_failed += 1
        self._consecutive_failures += 1
        if stage == "partial":
            self._force_refit = True
        backoff = min(
            self.failure_backoff_s * (2.0 ** (self._consecutive_failures - 1)),
            self.max_backoff_s,
        )
        self._backoff_until = time.monotonic() + backoff
        return {
            "action": "failed",
            "stage": stage,
            "error": f"{type(exc).__name__}: {exc}",
            "n_new": n_new,
            "backoff_s": backoff,
        }

    def _note_success(self) -> None:
        self._consecutive_failures = 0
        self._backoff_until = 0.0
        self._force_refit = False

    def classify(self, X: np.ndarray) -> dict:
        """Counts of where a pending batch lands relative to the fitted model."""
        if self.model is None:
            return {"known": 0, "new_cells": 0, "out_of_domain": len(X)}
        in_dom = self.model.grid_.in_domain(X).all(axis=1)
        # Only in-domain rows reach the cell mapping: a categorical mode
        # raises on an out-of-range index rather than clipping, and an
        # out-of-domain row must trigger the refit policy, not a crash.
        known = np.zeros(len(X), dtype=bool)
        if in_dom.any():
            known[in_dom] = known_cell_mask(self.model, X[in_dom])
        return {
            "known": int(known.sum()),
            "new_cells": int((~known & in_dom).sum()),
            "out_of_domain": int((~in_dom).sum()),
        }

    # -- the policy ------------------------------------------------------------

    def update(self, X_new, y_new, X_all, y_all=None) -> dict:
        """Absorb one flush; return what was done and why.

        ``X_new, y_new`` are the pending observations since the last
        flush; ``X_all, y_all`` the refit training set (the buffer's
        retention window).  ``X_all`` may instead be a zero-argument
        callable returning ``(X, y)`` — the session passes the buffer's
        ``refit_arrays`` method so the common partial path never
        materializes the window at all.  Returns a record with
        ``action`` in ``{"fit", "partial", "refit", "noop"}`` and, for
        refits, a ``reason`` in ``{"drift", "domain"}``.
        """
        X_new = np.asarray(X_new, dtype=float)
        y_new = np.asarray(y_new, dtype=float)

        def refit_set():
            return X_all() if callable(X_all) else (X_all, y_all)

        remaining = self._backoff_until - time.monotonic()
        if remaining > 0:
            # Degraded and inside the backoff window: don't retry yet.
            # The caller keeps the pending rows unflushed, so the next
            # attempt absorbs them (see StreamSession.flush).
            return {
                "action": "deferred",
                "reason": "backoff",
                "n_new": len(y_new),
                "retry_in_s": remaining,
            }

        if self.model is None:
            X_fit, y_fit = refit_set()
            if len(np.asarray(y_fit)) == 0:
                return {"action": "noop", "reason": "empty", "n_new": 0}
            try:
                fault_point("stream.refit")
                self.model = self.model_factory().fit(X_fit, y_fit)
            except Exception as exc:
                return self._note_failure("fit", exc, len(y_new))
            self._note_success()
            self.n_fit += 1
            return {"action": "fit", "reason": "initial", "n_new": len(y_new)}
        if len(y_new) == 0:
            return {"action": "noop", "reason": "empty", "n_new": 0}

        placement = self.classify(X_new)
        reason = None
        if self._force_refit:
            # Last partial_fit failed mid-update: rebuild from the
            # window before trusting warm-start state again.
            reason = "recover"
        elif self.monitor is not None and self.monitor.should_refit():
            reason = "drift"
        elif placement["out_of_domain"] > 0:
            reason = "domain"

        if reason is None:
            try:
                fault_point("stream.partial")
                self.model.partial_fit(
                    X_new, y_new, max_sweeps=self.partial_sweeps
                )
            except Exception as exc:
                return self._note_failure("partial", exc, len(y_new))
            self._note_success()
            self.n_partial += 1
            return {"action": "partial", "placement": placement, "n_new": len(y_new)}

        X_fit, y_fit = refit_set()
        old_rank = model_rank(self.model)
        try:
            fault_point("stream.refit")
            model = self.model_factory().fit(X_fit, y_fit)
        except Exception as exc:
            # The incumbent keeps serving; only a *successful* refit
            # replaces it (the factory builds the new model off to the
            # side, so a mid-fit crash tears nothing).
            return self._note_failure("refit", exc, len(y_new))
        # An adaptive refit may land on a different rank than the
        # incumbent's; everything keyed to the old rank — the incumbent's
        # cached ObservationPlan buffers and warm-start factors — lives
        # on the *old* model object, which is dropped wholesale here (the
        # factory built the replacement from scratch).  The drift monitor
        # is reset below regardless: its window scored the old model.
        new_rank = model_rank(model)
        rank_changed = (
            old_rank is not None and new_rank is not None and new_rank != old_rank
        )
        self.model = model
        self._note_success()
        self.n_refit += 1
        self.refit_reasons[reason] = self.refit_reasons.get(reason, 0) + 1
        if self.monitor is not None:
            self.monitor.reset()
        record = {
            "action": "refit",
            "reason": reason,
            "placement": placement,
            "n_new": len(y_new),
            "n_train": len(np.asarray(y_fit)),
            "rank": new_rank,
        }
        if rank_changed:
            self.n_rank_changes += 1
            record["rank_change"] = {"from": old_rank, "to": new_rank}
        return record

    def to_record(self) -> dict:
        """JSON-serializable counters."""
        return {
            "fit": self.n_fit,
            "partial": self.n_partial,
            "refit": self.n_refit,
            "failed": self.n_failed,
            "degraded": self.degraded,
            "refit_reasons": dict(self.refit_reasons),
            # Attribution of the live model's last (re)fit: which compiled
            # kernel ran it, and at what (possibly adapted) CP rank.
            "kernel_backend": getattr(self.model, "fit_backend_", None),
            "rank": model_rank(self.model),
            "rank_changes": self.n_rank_changes,
        }

    def __repr__(self):
        return (
            f"IncrementalTrainer(partial={self.n_partial}, refit={self.n_refit}, "
            f"model={self.model!r})"
        )
