"""One stream session, built in one place; stream replays as runtime jobs.

:class:`StreamTask` is the declarative spec of one stream (application,
length, drift schedule, model, trainer, drift-monitor and canary knobs,
optional journal) and the only code that wires a session together:
model factory → :class:`~repro.stream.drift.DriftMonitor` →
:class:`~repro.stream.trainer.IncrementalTrainer` →
:class:`~repro.stream.buffer.ObservationBuffer` →
:class:`~repro.stream.pipeline.StreamSession`.  :func:`run_stream_job`,
``python -m repro.stream`` (single stream and ``--streams``) and
:class:`~repro.stream.fleet.MultiStreamDriver` all go through it.

A streaming replay is deterministic given its seed (sampling, noise, and
every fit derive from it), so it fits the runtime's purity contract: the
same spec produces the same summary record regardless of process or
ordering, and ``Runtime`` caches it by content address.  Publishing is
the same documented side effect as ``run_tune_job(publish_dir=...)`` — a
cache hit replays the record without re-publishing.

Note the purity caveat: registry *version numbers* in the record are
dense per registry directory, so determinism holds for a fresh
``publish_dir`` (or the default private temporary registry); re-running
against a pre-populated registry assigns later versions, which is
exactly the case the cache answers without executing.
"""
from __future__ import annotations

import tempfile
from dataclasses import dataclass

from repro.apps import get_application
from repro.stream.buffer import ObservationBuffer
from repro.stream.drift import DriftMonitor
from repro.stream.fleet import DriftingApplication
from repro.stream.pipeline import StreamSession, replay_application
from repro.stream.trainer import IncrementalTrainer

__all__ = ["StreamTask", "run_stream_job", "stream_job_spec"]


def make_model_factory(
    space,
    cells=8,
    rank: int | str = 3,
    loss: str = "log_mse",
    max_sweeps: int = 30,
    seed: int = 0,
    **opt_params,
):
    """A zero-argument ``CPRModel`` builder for streaming refits.

    ``rank="auto"`` makes every (re)fit re-run the grow/prune rank
    search — a drift refit may land on a different rank than the
    incumbent, which the trainer reports as a ``rank_change``.
    """
    from repro.core import CPRModel

    def factory():
        return CPRModel(
            space=space,
            cells=cells,
            rank=rank,
            loss=loss,
            max_sweeps=max_sweeps,
            seed=seed,
            **opt_params,
        )

    return factory


@dataclass
class StreamTask:
    """One stream's declarative spec, and the builder of its session.

    Parameters
    ----------
    app
        Application name (resolved via :func:`repro.apps.get_application`).
    n, batch, seed
        Replay length / batch size / generator seed.
    name
        Registry model name (default ``<app>-stream``; must be unique
        within a fleet — two streams publishing one name would race the
        version pointer with different models).
    shift_at, drift_factor
        Drift injection (``shift_at=None`` replays stationary).
    canary, canary_margin, canary_min_scores, canary_max_scores
        Forwarded to :class:`~repro.stream.pipeline.StreamSession`.
    cells, rank, loss, max_sweeps, partial_sweeps
        Model / trainer hyper-parameters (``rank`` is an ``int`` or
        ``"auto"``).
    window
        The buffer's refit retention window.
    drift_window, drift_threshold, drift_min_count
        :class:`~repro.stream.drift.DriftMonitor` knobs.
    journal
        Journal path: the session resumes from it (and from the
        registry's latest version of ``name``).  ``None`` keeps the
        stream in memory.
    """

    app: str
    n: int = 256
    batch: int = 32
    seed: int = 0
    name: str | None = None
    shift_at: int | None = None
    drift_factor: float = 2.0
    canary: bool = False
    canary_margin: float = 0.05
    canary_min_scores: int = 24
    canary_max_scores: int = 256
    cells: int = 8
    rank: int | str = 3
    loss: str = "log_mse"
    max_sweeps: int = 30
    partial_sweeps: int | None = None
    window: int | None = 4096
    drift_window: int = 64
    drift_threshold: float = 0.25
    drift_min_count: int = 24
    journal: str | None = None

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("n must be >= 1")
        self.name = self.name or f"{self.app}-stream"

    def build_session(self, registry):
        """Build this task's ``(application, StreamSession)`` pair."""
        application = get_application(self.app)
        if self.shift_at is not None:
            application = DriftingApplication(
                application, self.shift_at, factor=self.drift_factor
            )
        factory = make_model_factory(
            application.space,
            cells=self.cells,
            rank=self.rank,
            loss=self.loss,
            max_sweeps=self.max_sweeps,
            seed=self.seed,
        )
        monitor = DriftMonitor(
            window=self.drift_window,
            threshold=self.drift_threshold,
            min_count=self.drift_min_count,
        )
        trainer = IncrementalTrainer(
            factory, monitor=monitor, partial_sweeps=self.partial_sweeps
        )
        kwargs = dict(
            meta={"app": self.app, "seed": int(self.seed)},
            canary=self.canary,
            canary_margin=self.canary_margin,
            canary_min_scores=self.canary_min_scores,
            canary_max_scores=self.canary_max_scores,
        )
        if self.journal is not None:
            session = StreamSession.resume(
                registry, self.name, self.journal, trainer, window=self.window, **kwargs
            )
        else:
            buffer = ObservationBuffer(window=self.window)
            session = StreamSession(registry, self.name, trainer, buffer=buffer, **kwargs)
        return application, session

    def run(self, registry) -> dict:
        """Replay this task into ``registry``; return the session summary."""
        application, session = self.build_session(registry)
        try:
            return replay_application(
                application, session, self.n, batch=self.batch, seed=self.seed
            )
        finally:
            session.buffer.close()


def run_stream_job(*, publish_dir=None, **params) -> dict:
    """Replay one :class:`StreamTask` (its fields are ``params``).

    Returns the JSON-serializable session summary (actions, drift
    telemetry, published versions) plus ``"app"``.  ``publish_dir=None``
    publishes into a private temporary registry — the loop still
    exercises the publish/republish path, nothing persists.
    """
    from repro.serve import ModelRegistry

    task = StreamTask(**params)
    if publish_dir is not None:
        summary = task.run(ModelRegistry(publish_dir))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            summary = task.run(ModelRegistry(tmp))
    summary["app"] = task.app
    return summary


def stream_job_spec(**params):
    """The canonical :func:`run_stream_job` spec (content-addressed)."""
    from repro.runtime import JobSpec

    return JobSpec("repro.stream.runner:run_stream_job", params)
