"""Model persistence and size accounting.

The paper assesses model size by writing the fitted model to disk with
``joblib`` and measuring file size (Section 6.0.4).  ``joblib`` is a thin
wrapper around :mod:`pickle` for objects without large memory-mapped arrays,
so we use pickle directly; the byte counts play the same role.

Size accounting and persistence share one *minimal-state protocol*: a
model that implements ``__getstate_for_size__`` (the state to measure)
**and** a ``_from_minimal_state`` classmethod (the inverse) is saved as
exactly the state that ``model_size_bytes`` measures, so the reported
model size and the on-disk size agree and fit-time buffers (optimizer
traces, observation plans) never reach disk.  The round trip is lossless
for prediction — ``load_model(save_model(m)).predict == m.predict`` —
which the persistence tests assert for ``CPRModel`` and ``TuckerModel``.
Objects without the full protocol are pickled whole, as before.

Streaming extension (PR 5): a model may additionally implement
``__getstate_fit__`` / ``_restore_fit_state`` — a *compact* warm-start
state (for CPR: the observed tensor's indices/means/counts, the
sufficient statistic of ``partial_fit``).  It travels in the payload
under a separate ``"fit"`` key, restored transparently by
:func:`loads_model`, so a restored model keeps absorbing streaming
measurements instead of refusing.  ``model_size_bytes`` deliberately
does **not** count it: the Figure 7 metric measures the prediction
state, and ``dumps_model(model, fit_state=False)`` recovers the exact
prediction-only bytes when a consumer wants them (the on-disk overhead
of the default is the fit state itself, bounded by the observed cell
count, never the raw training set).
"""
from __future__ import annotations

import hashlib
import io
import pickle
from importlib import import_module
from pathlib import Path

import numpy as np

__all__ = [
    "canonical_array",
    "model_size_bytes",
    "dumps_model",
    "loads_model",
    "model_digest",
    "save_model",
    "load_model",
]


def canonical_array(a: np.ndarray) -> np.ndarray:
    """``a`` (or a no-copy view of it) with the canonical dtype instance.

    Content-addressed publishing needs ``dumps_model`` to be a pure
    function of the model's *values*, but pickle's memoization encodes
    object *identity*: a freshly fitted model's arrays all share numpy's
    canonical dtype singletons, while an unpickled model's arrays carry
    per-payload dtype instances — same values, different byte streams,
    different digests.  Rebinding every array to the canonical dtype (a
    view; the buffer is never copied or mutated) makes serialization a
    fixed point: fit → dump → load → dump reproduces identical bytes.
    """
    a = np.ascontiguousarray(a)
    if a.dtype.names is not None:  # structured dtypes: leave untouched
        return a
    dt = np.dtype(a.dtype.name)
    if a.dtype is dt:
        return a
    # Equal dtype, different instance: reinterpreting the buffer is safe.
    # Different byte order compares unequal and must *convert* the values
    # (a view would silently byteswap them).
    return a.view(dt) if a.dtype == dt else a.astype(dt)


def _canonical_state(obj):
    """Recursively canonicalize arrays in a minimal-state tree."""
    if isinstance(obj, np.ndarray):
        return canonical_array(obj)
    if isinstance(obj, dict):
        return {k: _canonical_state(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_canonical_state(v) for v in obj)
    return obj

#: Tag identifying a minimal-state record on disk.
_MINIMAL_FORMAT = "repro.minimal-state.v1"


def _minimal_state_hooks(model):
    """The (state_fn, restore_fn) pair, or ``(None, None)`` if incomplete."""
    state_fn = getattr(model, "__getstate_for_size__", None)
    restore_fn = getattr(type(model), "_from_minimal_state", None)
    if callable(state_fn) and callable(restore_fn):
        return state_fn, restore_fn
    return None, None


def model_size_bytes(model) -> int:
    """Return the pickled size of ``model`` in bytes.

    Models that implement ``__getstate_for_size__`` can shrink the persisted
    representation (e.g. dropping caches of training data that are not needed
    for prediction); otherwise the full object state is measured.
    """
    state = model
    hook = getattr(model, "__getstate_for_size__", None)
    if callable(hook):
        state = _canonical_state(hook())
    buf = io.BytesIO()
    pickle.dump(state, buf, protocol=pickle.HIGHEST_PROTOCOL)
    return buf.getbuffer().nbytes


def dumps_model(model, fit_state: bool = True) -> bytes:
    """Serialize ``model`` to bytes (the payload :func:`save_model` writes).

    Minimal-state models are written as their measured state plus a small
    class tag; everything else is pickled whole.  This is the byte-level
    entry point the serving registry content-addresses
    (:func:`model_digest` hashes exactly these bytes).

    ``fit_state=True`` (default) also packs the model's compact
    warm-start state (``__getstate_fit__``, when implemented) so the
    restored model supports ``partial_fit``; pass ``False`` for a
    prediction-only snapshot whose bytes equal exactly the state
    ``model_size_bytes`` measures.
    """
    payload = model
    state_fn, _ = _minimal_state_hooks(model)
    if state_fn is not None:
        payload = {
            "__format__": _MINIMAL_FORMAT,
            "class": (type(model).__module__, type(model).__qualname__),
            "state": _canonical_state(state_fn()),
        }
        fit_fn = getattr(model, "__getstate_fit__", None)
        if fit_state and callable(fit_fn):
            fit = fit_fn()
            if fit is not None:
                payload["fit"] = _canonical_state(fit)
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def loads_model(data: bytes):
    """Inverse of :func:`dumps_model` (restores fit state when present)."""
    obj = pickle.loads(data)
    if isinstance(obj, dict) and obj.get("__format__") == _MINIMAL_FORMAT:
        module, qualname = obj["class"]
        cls = getattr(import_module(module), qualname)
        model = cls._from_minimal_state(obj["state"])
        restore = getattr(model, "_restore_fit_state", None)
        if "fit" in obj and callable(restore):
            restore(obj["fit"])
        return model
    return obj


def model_digest(model) -> str:
    """SHA-256 hex digest of the serialized model bytes.

    Two models publish to the same registry object exactly when their
    persisted states are byte-identical — the content address the serving
    layer stores blobs under.
    """
    return hashlib.sha256(dumps_model(model)).hexdigest()


def save_model(model, path, fit_state: bool = True) -> int:
    """Persist ``model`` to ``path``; return the number of bytes written."""
    data = dumps_model(model, fit_state=fit_state)
    Path(path).write_bytes(data)
    return len(data)


def load_model(path):
    """Load a model previously written by :func:`save_model`."""
    return loads_model(Path(path).read_bytes())
