"""Which public functions the traced run wraps, and under which span names.

Span names are the per-layer metric prefixes in ``layers.json``.  The same
set is installed in the benchmark process and, through ``serve_child.py``,
in the server child; a wrapped function a process never calls costs nothing.
"""
from __future__ import annotations

__all__ = ["install"]


def _completion_facts(args, kwargs, result) -> dict:
    shape, indices = args[0], args[1]
    return {
        "sweeps": int(result.n_sweeps),
        "nnz": int(len(indices)),
        "order": int(len(shape)),
        "rank": int(result.factors[0].shape[1]),
    }


def _request_id(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return request.get("rid") if isinstance(request, dict) else None


def install(tracer) -> None:
    """Wrap every traced layer; call after the ``repro`` packages are imported."""
    import repro.experiments.harness as harness
    import repro.utils.serialization as serialization
    from repro.baselines.sgr import SparseGridBasis, SparseGridRegressor
    from repro.core import CPRModel
    from repro.core.completion import als, amn, backends
    from repro.core.tensor import ObservedTensor
    from repro.datasets import sampling
    from repro.runtime import Runtime
    from repro.serve import MicroBatcher, ModelRegistry, ModelServer, PredictionEngine
    from repro.stream import IncrementalTrainer, ObservationBuffer, StreamSession

    tracer.patch_method(Runtime, "run", "runtime.run",
                        info=lambda a, k, r: {"jobs": len(r)})
    tracer.patch_function(harness.run_tune_job, "experiments.tune_job",
                          info=lambda a, k, r: {"configs": len(r.get("results", []))})
    tracer.patch_function(sampling.generate_dataset, "datasets.generate")
    tracer.patch_method(ObservedTensor, "from_data", "core.tensor.from_data")
    for method in ("fit", "partial_fit", "predict"):
        tracer.patch_method(CPRModel, method, f"core.model.{method}")
    tracer.patch_function(als.complete_als, "core.completion.als", info=_completion_facts)
    tracer.patch_function(amn.complete_amn, "core.completion.amn", info=_completion_facts)
    tracer.patch_function(backends.select_best, "core.completion.select_best")
    tracer.patch_method(SparseGridRegressor, "fit", "baselines.sgr.fit")
    tracer.patch_method(SparseGridRegressor, "predict", "baselines.sgr.predict")
    tracer.patch_method(SparseGridBasis, "evaluate", "baselines.sgr.evaluate")
    tracer.patch_method(ModelServer, "handle", "serve.server.handle", rid=_request_id)
    tracer.patch_method(MicroBatcher, "submit", "serve.batcher.submit")
    tracer.patch_method(PredictionEngine, "predict", "serve.engine.predict",
                        info=lambda a, k, r: {"rows": len(r)})
    tracer.patch_method(ModelRegistry, "resolve", "serve.registry.resolve")
    tracer.patch_method(ModelRegistry, "publish", "serve.registry.publish")
    tracer.patch_method(ModelRegistry, "load_resolved", "serve.registry.load")
    tracer.patch_function(serialization.dumps_model, "utils.serialization.dumps")
    tracer.patch_function(serialization.loads_model, "utils.serialization.loads")
    tracer.patch_method(StreamSession, "observe", "stream.observe")
    tracer.patch_method(ObservationBuffer, "append", "stream.buffer.append")
    tracer.patch_method(IncrementalTrainer, "update", "stream.trainer.update")
