"""Orchestration: buffer + trainer + monitor + registry as one loop.

A :class:`StreamSession` turns the repo's fit→publish→serve pipeline
into a *continuous* one: observations stream in, each batch is scored
prequentially (drift signal), appended to the journaled buffer, flushed
into the model through the :class:`IncrementalTrainer` policy, and —
whenever the model was (re)fitted rather than warm-updated — republished
into the :class:`~repro.serve.ModelRegistry` as a new version.  A live
:class:`~repro.serve.ModelServer` over the same registry picks the new
version up on its next ``name@latest`` resolution; nothing restarts.
The trainer is the one owner of the model factory and of the drift
monitor; the session scores through ``trainer.monitor``.  Sessions are
normally assembled by :class:`~repro.stream.runner.StreamTask`.

Resumability mirrors ``repro.runtime``: the published manifest records
``stream_seq`` (how much of the journal the published model absorbed),
so :meth:`StreamSession.resume` reloads the latest version — whose
payload carries the observed tensor (PR 5's fit-state persistence) — and
replays only the journal tail past that point.

With ``canary=True`` a drift-triggered refit no longer flips
``name@latest`` directly: the refit model is published to the
**shadow** channel and put on :class:`~repro.stream.canary.ShadowTrial`
against the frozen incumbent.  Both score every arriving batch
prequentially; the registry pointer only flips (``registry.promote``)
when the candidate's live MLogQ beats the incumbent's by the configured
margin, and a losing candidate is rolled back — the registry pointer
cleared, the incumbent model re-adopted locally, the loser recorded in
:attr:`rolled_back_versions`.
"""
from __future__ import annotations

import numpy as np

from repro.faults import fault_point, retry_call
from repro.stream.buffer import ObservationBuffer
from repro.stream.canary import ShadowTrial
from repro.stream.trainer import IncrementalTrainer

__all__ = ["StreamSession", "replay_application"]


class StreamSession:
    """One named model's streaming update loop against a registry.

    Parameters
    ----------
    registry
        :class:`~repro.serve.ModelRegistry` to publish into (``None``
        disables publishing — buffer/trainer still run).
    name
        Registry model name (also the server-side reference).
    trainer
        The :class:`IncrementalTrainer` that owns the live model, its
        model factory and its :class:`~repro.stream.drift.DriftMonitor`.
        The session scores drift through ``trainer.monitor`` (exposed as
        :attr:`monitor`), so a trainer without a monitor is refused.
    buffer
        The observation buffer (default: an unbounded in-memory one).
    meta
        Extra key/values merged into every published manifest.
    canary
        When true, refits of an already-published model go through a
        shadow trial instead of flipping ``name@latest`` immediately
        (see the module docstring).  The very first publish and refits
        of a never-published name are unaffected — there is no incumbent
        to protect.
    canary_margin, canary_min_scores, canary_max_scores
        Forwarded to :class:`~repro.stream.canary.ShadowTrial`.
    """

    def __init__(
        self,
        registry,
        name: str,
        trainer: IncrementalTrainer,
        buffer: ObservationBuffer | None = None,
        meta: dict | None = None,
        canary: bool = False,
        canary_margin: float = 0.05,
        canary_min_scores: int = 24,
        canary_max_scores: int = 256,
    ):
        if trainer.monitor is None:
            raise ValueError("StreamSession needs a trainer with a DriftMonitor")
        self.registry = registry
        self.name = name
        self.trainer = trainer
        self.buffer = buffer if buffer is not None else ObservationBuffer()
        self.meta = dict(meta or {})
        self.canary = bool(canary)
        self.canary_margin = float(canary_margin)
        self.canary_min_scores = int(canary_min_scores)
        self.canary_max_scores = int(canary_max_scores)
        self.trial: ShadowTrial | None = None
        self.trial_records: list[dict] = []
        self.promotions = 0
        self.rollbacks = 0
        self.rolled_back_versions: list[int] = []
        self.published_versions: list[int] = []
        self.resumed_from: int | None = None
        self.publish_failures = 0
        self._publish_degraded = False
        self._last_publish_error: str | None = None

    # -- resuming --------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        registry,
        name: str,
        journal,
        trainer: IncrementalTrainer,
        window: int | None = None,
        **kwargs,
    ) -> "StreamSession":
        """Rebuild a session from its journal and last published version.

        The journal is replayed into the buffer; if ``name`` has a
        published version, its model (restored *with* fit state, so
        ``partial_fit`` works) is adopted and the buffer's flush mark is
        set to the manifest's ``stream_seq`` — the next :meth:`flush`
        absorbs exactly the journal tail the published model missed.
        """
        from repro.utils.serialization import dumps_model, loads_model

        buffer = ObservationBuffer.open(journal, window=window)
        session = cls(registry, name, trainer, buffer=buffer, **kwargs)
        if registry is not None and name in registry:
            # One resolution serves both the model bytes and the cursor:
            # resolving twice could pair version N's ``stream_seq`` with a
            # concurrently published version N+1's model and double-merge
            # the journal rows in between.
            model, mv = registry.load_resolved(registry.resolve(name))
            # A private copy: the registry's LRU hands out *shared* model
            # objects, and the trainer mutates its model in place — a
            # server over the same registry must never observe those
            # mutations through the cache.  (The round trip is the
            # digest-stable serialization path, so the copy is exact.)
            session.trainer.adopt(loads_model(dumps_model(model)))
            consumed = min(int(mv.meta.get("stream_seq", 0)), buffer.n_seen)
            session.resumed_from = consumed
            buffer.mark_flushed(consumed)
        return session

    @property
    def model(self):
        return self.trainer.model

    @property
    def monitor(self):
        """The trainer's drift monitor (reset by the trainer on every refit)."""
        return self.trainer.monitor

    # -- the loop --------------------------------------------------------------

    def observe(self, X, y, predict_fn=None) -> dict:
        """Score, journal, and absorb one measurement batch.

        ``predict_fn`` overrides where the prequential predictions come
        from (the CLI passes the live server's predict path so the drift
        signal reflects what consumers actually see; default is the live
        trainer model).  Returns the flush record plus scoring telemetry.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        batch_err = None
        if self.trainer.model is not None and len(y):
            fn = predict_fn if predict_fn is not None else self.trainer.model.predict
            try:
                batch_err = self.monitor.record(np.asarray(fn(X), dtype=float), y)
            except Exception:
                # A failing scorer (e.g. a predict_fn over a down server)
                # loses one drift sample, never the observations — they
                # are journaled and absorbed below regardless.
                batch_err = None
        trial_state = None
        if self.trial is not None and len(y):
            # Prequential: both contenders judged on this batch *before*
            # the candidate absorbs it in the flush below.
            trial_state = self.trial.score(X, y)
            verdict = self.trial.decision()
            if verdict is not None:
                self._resolve_trial(promote=verdict == "promote")
        self.buffer.append(X, y)
        record = self.flush()
        record["batch_error"] = batch_err
        record["rolling_error"] = self.monitor.error
        if trial_state is not None:
            record["trial"] = trial_state
        return record

    def flush(self) -> dict:
        """Absorb pending observations; publish when the model was (re)fitted.

        A failed or deferred update leaves the pending rows *unflushed*
        (they are journaled, so nothing is lost) — the next flush
        presents the accumulated batch again once the trainer's backoff
        allows a retry.  A failed publish keeps the incumbent registry
        version serving and marks the session :attr:`degraded`.
        """
        X_new, y_new = self.buffer.since(self.buffer.flushed)
        # A successful refit replaces ``trainer.model`` with a fresh
        # object, so the reference captured here stays frozen — exactly
        # the artifact an active ``name@latest`` resolution serves.
        incumbent = self.trainer.model
        # The refit set is passed lazily: the common partial path never
        # materializes the retention window.
        record = self.trainer.update(X_new, y_new, self.buffer.refit_arrays)
        if record["action"] not in ("deferred", "failed"):
            self.buffer.mark_flushed()
        if record["action"] in ("fit", "refit"):
            shadow = (
                self.canary
                and record["action"] == "refit"
                and self.registry is not None
                and self.name in self.registry
            )
            if shadow and self.trial is not None:
                # A refit landing mid-trial supersedes it: the old
                # candidate is rolled back (it never won), and its
                # incumbent carries over — it is still what
                # ``name@latest`` serves, whereas the model captured
                # above is the superseded candidate.  Resolve *before*
                # publishing, or the rollback would clear the new
                # candidate's freshly written shadow pointer.
                incumbent = self.trial.incumbent
                self._resolve_trial(
                    promote=False, reason="superseded by newer refit", adopt=False
                )
            channel = "shadow" if shadow else None
            version = self.publish(reason=record.get("reason", ""), channel=channel)
            record["published_version"] = version
            if shadow:
                record["channel"] = "shadow"
                self._start_trial(incumbent, version)
            if version is None and self.registry is not None:
                record["publish_error"] = self._last_publish_error
        return record

    # -- canary trials ---------------------------------------------------------

    def _start_trial(self, incumbent, version: int | None) -> None:
        """Open a shadow trial for the freshly refitted candidate."""
        self.trial = ShadowTrial(
            candidate=self.trainer.model,
            incumbent=incumbent,
            version=version,
            margin=self.canary_margin,
            min_scores=self.canary_min_scores,
            max_scores=self.canary_max_scores,
        )

    def _resolve_trial(
        self, promote: bool, reason: str = "", adopt: bool = True
    ) -> None:
        """Close the active trial: flip the pointer or roll the loser back."""
        trial, self.trial = self.trial, None
        record = trial.to_record()
        if promote:
            self.promotions += 1
            record["outcome"] = "promoted"
            if self.registry is not None:
                if trial.version is not None:
                    self._registry_op(
                        lambda: self.registry.promote(self.name, trial.version)
                    )
                else:
                    # The shadow publish itself had failed; promote means
                    # "this model should serve", so publish it plainly.
                    self.publish(reason="canary-promote")
        else:
            self.rollbacks += 1
            record["outcome"] = "rolled_back"
            record["reason"] = reason or "lost shadow trial"
            if trial.version is not None:
                self.rolled_back_versions.append(trial.version)
                if self.registry is not None:
                    self._registry_op(
                        lambda: self.registry.rollback(
                            self.name, reason=record["reason"]
                        )
                    )
            if adopt:
                # The incumbent keeps both roles: it never stopped
                # serving, and it resumes absorbing partial updates.
                self.trainer.adopt(trial.incumbent)
        # Either way the live model changed identity relative to the
        # trial window — stale prequential evidence must not trigger
        # (or mask) the next refit.
        self.monitor.reset()
        self.trial_records.append(record)

    def _registry_op(self, fn) -> bool:
        """Run a registry pointer mutation with the publish retry policy."""

        def _op():
            fault_point("stream.publish")
            return fn()

        try:
            retry_call(_op, attempts=3, base_delay_s=0.05, deadline_s=5.0)
        except Exception as exc:
            self.publish_failures += 1
            self._publish_degraded = True
            self._last_publish_error = f"{type(exc).__name__}: {exc}"
            return False
        return True

    def publish(self, reason: str = "", channel: str | None = None) -> int | None:
        """Publish the current model as the next registry version.

        ``channel="shadow"`` publishes without flipping ``name@latest``
        (the canary path).  Retries transient registry failures briefly;
        on exhaustion returns ``None`` and degrades instead of raising —
        consumers keep resolving the previous version, and the next
        (re)fit gets another chance (the journal, not the registry, is
        the stream's source of truth).
        """
        if self.registry is None or self.trainer.model is None:
            return None
        meta = dict(self.meta)
        meta.update(
            {
                "stream_seq": self.buffer.flushed,
                "reason": reason,
                "rolling_error": None
                if np.isnan(self.monitor.error)
                else float(self.monitor.error),
            }
        )
        if channel is not None:
            meta["channel"] = channel

        def _publish():
            fault_point("stream.publish")
            return self.registry.publish(
                self.name, self.trainer.model, meta=meta, channel=channel
            )

        try:
            mv = retry_call(_publish, attempts=3, base_delay_s=0.05, deadline_s=5.0)
        except Exception as exc:
            self.publish_failures += 1
            self._publish_degraded = True
            self._last_publish_error = f"{type(exc).__name__}: {exc}"
            return None
        self._publish_degraded = False
        self._last_publish_error = None
        self.published_versions.append(mv.version)
        return mv.version

    @property
    def degraded(self) -> bool:
        """Whether the session is serving stale state after a failure."""
        return self.trainer.degraded or self._publish_degraded

    @property
    def republished(self) -> int:
        """Publishes that superseded an existing version (v2 and later)."""
        return sum(1 for v in self.published_versions if v > 1)

    def summary(self) -> dict:
        """JSON-serializable end-of-stream report."""
        return {
            "name": self.name,
            "kernel_backend": getattr(
                self.trainer.model, "fit_backend_", None
            ),
            "n_observations": self.buffer.n_seen,
            "flushed": self.buffer.flushed,
            "resumed_from": self.resumed_from,
            "trainer": self.trainer.to_record(),
            "drift": self.monitor.to_record(),
            "published_versions": list(self.published_versions),
            "republished": self.republished,
            "publish_failures": self.publish_failures,
            "degraded": self.degraded,
            "canary": self.canary,
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "rolled_back_versions": list(self.rolled_back_versions),
            "trials": list(self.trial_records),
            "trial_open": None if self.trial is None else self.trial.to_record(),
        }


def replay_application(
    app,
    session: StreamSession,
    n: int,
    batch: int = 32,
    seed: int = 0,
    sigma=None,
    predict_fn=None,
    on_batch=None,
) -> dict:
    """Replay ``n`` measured configurations of ``app`` as a batched stream.

    Configurations are sampled from the application's parameter space and
    measured with its noise model — both driven by one seeded generator,
    so a replay is a pure function of ``(app, n, batch, seed, sigma)``.
    ``on_batch(i, record)`` observes each flush (the CLI prints from it).
    Returns :meth:`StreamSession.summary`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    rng = np.random.default_rng(seed)
    done = 0
    i = 0
    while done < n:
        m = min(batch, n - done)
        X = app.space.sample(m, rng=rng)
        y = app.measure(X, rng=rng, sigma=sigma)
        record = session.observe(X, y, predict_fn=predict_fn)
        if on_batch is not None:
            on_batch(i, record)
        done += m
        i += 1
    return session.summary()
