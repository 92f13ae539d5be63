"""Streaming observation pipeline: fit → publish → serve as a *loop*.

The paper's premise is that performance observations arrive incrementally
from runs of real applications; its conclusion names "efficiently updating
CP decompositions to model streaming data in online settings" as the open
direction.  This package closes the repo's gap between the fast batch
kernels (PR 2) and the serving stack (PR 4): a continuous loop that
ingests measurements, folds them into the model, and republishes when the
model meaningfully changed.

:class:`~repro.stream.buffer.ObservationBuffer`
    Append-only, windowed store of ``(config, runtime)`` observations
    with canonical-JSON journaling to disk, so a stream is resumable the
    way ``repro.runtime`` sweeps are.
:class:`~repro.stream.trainer.IncrementalTrainer`
    Per-flush policy between a cheap ``partial_fit`` warm-start sweep
    (new observations landed in the model's observed cells/fibers —
    reusing the fit's :class:`~repro.core.completion.ObservationPlan`
    buffers) and a full refit (grid widening needed, or drift detected).
:class:`~repro.stream.drift.DriftMonitor`
    Rolling relative-error tracker over a prequential holdout window
    (each observation is scored *before* it is absorbed); sustained
    error above threshold triggers refit + republish.  The trainer owns
    it, as it owns the model factory.
:class:`~repro.stream.pipeline.StreamSession`
    Orchestrates buffer + trainer (and the trainer's monitor) against a
    :class:`~repro.serve.ModelRegistry`: refits auto-republish a new
    version, which a live :class:`~repro.serve.ModelServer` picks up on
    its next ``name@latest`` resolution — no restart.  With
    ``canary=True`` a refit publishes to ``name@shadow`` instead and a
    :class:`~repro.stream.canary.ShadowTrial` gates the pointer flip on
    live prequential MLogQ (losers are rolled back).
:class:`~repro.stream.runner.StreamTask`
    One stream's declarative spec and the one builder of its session:
    :func:`~repro.stream.runner.run_stream_job`, the CLI and the fleet
    driver all assemble sessions through it.
:class:`~repro.stream.fleet.MultiStreamDriver`
    Many concurrent tasks — a fleet of (optionally drifting)
    applications — publishing into one shared registry.

``python -m repro.stream`` replays any ``repro.apps`` application as a
timed observation stream against a live in-process server (or, with
``--streams``, a whole drifting fleet); see DESIGN.md ("Streaming" and
"Elastic runtime & canary republish") for the journal layout, refit
policy, and shadow-scoring gate.
"""
from repro.stream.buffer import ObservationBuffer
from repro.stream.canary import ShadowTrial
from repro.stream.drift import DriftMonitor
from repro.stream.fleet import DriftingApplication, MultiStreamDriver
from repro.stream.pipeline import StreamSession, replay_application
from repro.stream.runner import StreamTask, run_stream_job, stream_job_spec
from repro.stream.trainer import IncrementalTrainer

__all__ = [
    "DriftMonitor",
    "DriftingApplication",
    "IncrementalTrainer",
    "MultiStreamDriver",
    "ObservationBuffer",
    "ShadowTrial",
    "StreamSession",
    "StreamTask",
    "replay_application",
    "run_stream_job",
    "stream_job_spec",
]
