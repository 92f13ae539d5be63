"""Model serving: publish fitted models, answer query traffic (``repro.serve``).

The experiment side of this repo produces fitted :class:`~repro.core.CPRModel`
objects; this package is the consumption side — the north star's "serve
heavy traffic" leg.  Learned performance models are read-heavy assets in
practice (a compiler cost model is queried millions of times per search),
so the design splits cleanly into:

:class:`~repro.serve.registry.ModelRegistry`
    Content-addressed, versioned model store layered on
    :mod:`repro.utils.serialization`.  Blobs live under their SHA-256
    digest; ``name -> version -> digest`` pointers are small JSON
    manifests.  Thread-safe, with a digest-keyed LRU cache that can never
    serve a stale version (re-publishing changes the digest, not the
    cached entry).
:class:`~repro.serve.engine.PredictionEngine`
    Batched prediction front-end for one fitted model: validates query
    batches against the model's grid, routes them through the fused
    corner-blend path in one vectorized call per batch, and keeps
    latency/throughput statistics.
:class:`~repro.serve.server.ModelServer` (``python -m repro.serve``)
    Stdlib-only JSON server over a registry — HTTP or stdin line
    protocol — with microbatching that coalesces concurrent requests
    into single engine calls, and admission control that sheds past a
    bounded in-flight count instead of queueing without limit.

See DESIGN.md ("Serving") for the registry layout and request schema.
"""
from repro.serve.engine import PredictionEngine
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.server import (
    MicroBatcher,
    ModelServer,
    Overloaded,
    PredictTimeout,
)

__all__ = [
    "MicroBatcher",
    "ModelRegistry",
    "ModelServer",
    "ModelVersion",
    "Overloaded",
    "PredictTimeout",
    "PredictionEngine",
]
