#!/usr/bin/env python
"""Streaming quickstart: fit → publish → serve as a continuous loop.

Demonstrates the ``repro.stream`` pipeline on MPI broadcast data (the
paper's "BC" benchmark):

1. a :class:`StreamSession` ingests measurement batches as they arrive,
   journaling each one to disk;
2. every batch is scored *before* it is absorbed (prequential holdout),
   feeding the rolling :class:`DriftMonitor`;
3. the :class:`IncrementalTrainer` folds in-domain batches into the
   model with a cheap ``partial_fit`` warm start (reusing the fit's
   observation-plan buffers) and falls back to a full refit on domain
   widening or drift;
4. refits auto-republish a new registry version, which a live
   :class:`ModelServer` picks up on its next request — no restart;
5. the journal + the published model's fit state make the whole stream
   resumable from disk.

Run:  python examples/stream_bcast.py
"""
from __future__ import annotations

import tempfile
from pathlib import Path

from repro.apps import Broadcast
from repro.serve import ModelRegistry, ModelServer
from repro.stream import (
    DriftMonitor,
    IncrementalTrainer,
    ObservationBuffer,
    StreamSession,
    replay_application,
)
from repro.stream.runner import make_model_factory

N_OBSERVATIONS = 512
BATCH = 32


def main():
    app = Broadcast()
    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(Path(root) / "registry")
        journal = Path(root) / "bcast.jsonl"
        server = ModelServer(registry, default_model="bcast-stream")

        factory = make_model_factory(app.space, cells=8, rank=3, seed=0)
        # Threshold just above this model family's converged rolling error
        # (~0.2 MLogQ at cells=8/rank=3), so drift refits fire on genuine
        # degradation rather than on the model's noise floor.
        # The trainer owns the model factory and the drift monitor; the
        # session scores every batch through ``trainer.monitor``.
        monitor = DriftMonitor(window=64, threshold=0.3, min_count=24)
        session = StreamSession(
            registry,
            "bcast-stream",
            IncrementalTrainer(factory, monitor=monitor),
            buffer=ObservationBuffer(journal=journal, window=4096),
            meta={"app": app.name},
        )

        def on_batch(i, record):
            line = f"batch {i:2d}: action={record['action']:7s}"
            if record.get("published_version"):
                line += f" -> republished v{record['published_version']}"
            if record.get("batch_error") is not None:
                line += f"  batch MLogQ {record['batch_error']:.3f}"
            print(line)

        summary = replay_application(
            app, session, N_OBSERVATIONS, batch=BATCH, seed=0, on_batch=on_batch
        )
        session.buffer.close()

        print(f"\nstream summary: {summary['trainer']}")
        print(f"published versions: {summary['published_versions']} "
              f"({summary['republished']} republish(es))")

        # The live server answers from the *latest* version automatically.
        resp = server.handle({"op": "predict", "x": [[4, 8, 1 << 20]]})
        print(f"server now serves {resp['model']}: y={resp['y']}")

        # Resume from disk: the journal tail past the last published
        # version is replayed into the restored model (fit state and all).
        resumed = StreamSession.resume(
            registry,
            "bcast-stream",
            journal,
            IncrementalTrainer(factory, monitor=DriftMonitor()),
            window=4096,
        )
        print(f"resumed at seq {resumed.resumed_from} of "
              f"{resumed.buffer.n_seen} journaled observations; "
              f"pending={resumed.buffer.n_seen - resumed.buffer.flushed}")
        resumed.flush()
        resumed.buffer.close()
        print(f"resume flush absorbed the tail: flushed={resumed.buffer.flushed}")


if __name__ == "__main__":
    main()
