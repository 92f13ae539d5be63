"""Stdlib-only JSON model server over a :class:`ModelRegistry`.

Two transports, one protocol (see DESIGN.md, "Serving"):

``python -m repro.serve --registry DIR --http PORT``
    Threaded HTTP server; POST a JSON request body to any path.  Because
    requests arrive on concurrent handler threads, predict calls pass
    through a per-model :class:`MicroBatcher`: each flush takes every
    request already queued (up to ``--max-batch`` rows) as one engine
    batch, without waiting for more to arrive.  The handler sets
    ``TCP_NODELAY``, so a reply's headers and body (two sends) never
    wait on the client's delayed ACK.
``python -m repro.serve --registry DIR --stdin``
    Line protocol: one JSON request per stdin line, one JSON response
    per stdout line.  Single-threaded, so predictions run directly on
    the engine (there is never anything queued to coalesce).

Requests are objects with an ``op``: ``predict`` (``model``, optional
``version``, ``x`` = list of query rows), ``models``, ``stats``,
``ping``.  Responses always carry ``"ok"``; failures report
``{"ok": false, "error": ...}`` and never kill the server.

Engines are cached per resolved ``(name, version, digest)``.  An
unversioned ``predict`` re-resolves "latest" on every request, so a
model re-published mid-flight is picked up on the next batch without a
restart — the registry's digest-keyed cache guarantees no staleness.
"""
from __future__ import annotations

import argparse
import json
import queue
import sys
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro import faults
from repro.serve.engine import PredictionEngine
from repro.serve.registry import ModelRegistry

__all__ = [
    "BatcherClosed",
    "MicroBatcher",
    "ModelServer",
    "Overloaded",
    "PredictTimeout",
    "main",
]


class BatcherClosed(RuntimeError):
    """Submit raced a :meth:`MicroBatcher.close` — retry on a fresh batcher.

    A distinct type so callers can tell infrastructure shutdown apart
    from a model-level ``RuntimeError`` raised inside the flush.
    """


class Overloaded(RuntimeError):
    """Admission control shed this request — the server is saturated.

    Raised when a bounded pending queue or the server's in-flight limit
    is full; the protocol layer turns it into the canonical
    ``{"ok": false, "error": "overloaded"}`` response (HTTP 503) so
    load balancers can retry elsewhere instead of piling on.
    """


class PredictTimeout(RuntimeError):
    """A predict outlived the per-request budget — answered with HTTP 504.

    Raised by :meth:`MicroBatcher.submit` when the batch containing the
    request did not flush within ``timeout_s``.  The waiter gets this
    (and the transport a 504) instead of blocking forever behind a
    wedged model; the batcher separately replaces its flush worker when
    the evidence says that worker is stuck (see
    :meth:`MicroBatcher._replace_wedged_worker`).
    """


def _jsonable_predictions(y: np.ndarray) -> list:
    """Strict-JSON-safe list form of a prediction vector.

    Non-finite predictions (e.g. exp overflow on a far extrapolation)
    serialize as ``null``, never an ``Infinity`` token.  The all-finite
    common case is one vectorized check plus ``.tolist()`` — the old
    per-element ``float(v) if math.isfinite(v) else None`` loop ran on
    every hot-path response.
    """
    y = np.asarray(y, dtype=float)
    finite = np.isfinite(y)
    if finite.all():
        return y.tolist()
    out = y.astype(object)
    out[~finite] = None
    return out.tolist()


class _Pending:
    """One submitted batch waiting for its slice of a flushed result.

    ``queued_after`` is the number of the last flush started when the
    item was queued, ``flush`` the number of the flush that took it
    (``None`` while it waits in the queue); see
    :meth:`MicroBatcher._replace_wedged_worker`.
    """

    __slots__ = ("x", "event", "result", "error", "queued_after", "flush")

    def __init__(self, x):
        self.x = x
        self.event = threading.Event()
        self.result = None
        self.error = None
        self.queued_after = 0
        self.flush = None


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into single batched flushes.

    A background worker drains the queue: it takes the first waiting
    item plus everything queued behind it, up to ``max_batch`` rows,
    and flushes at once — no window waits for joiners.  Requests that
    arrive during a running flush form the next batch, so batches grow
    with load and an idle server answers a lone request immediately.
    All rows of a batch are concatenated and handed to ``flush_fn`` in
    one call.  Each submitter gets back exactly its slice; an exception
    in ``flush_fn`` propagates to every member of that batch (and only
    that batch).
    """

    def __init__(
        self,
        flush_fn,
        max_batch: int = 256,
        max_pending: int | None = None,
        timeout_s: float | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush_fn = flush_fn
        self.max_batch = int(max_batch)
        # ``max_pending`` bounds the number of *waiting* submissions
        # (admission control): when the worker falls behind, submit
        # raises Overloaded instead of queueing unboundedly.
        self.max_pending = None if max_pending is None else max(int(max_pending), 1)
        # Per-request budget: a submit not answered within ``timeout_s``
        # raises PredictTimeout instead of waiting forever on a wedged
        # flush (None preserves the historical wait-forever behaviour).
        self.timeout_s = None if timeout_s is None else max(float(timeout_s), 1e-3)
        self._queue: queue.Queue = queue.Queue()
        self._pending = 0
        self._closed = False
        # Serializes the closed-check + enqueue against close(), so no
        # item can ever land behind the shutdown sentinel (which would
        # leave its submitter blocked forever).
        self._submit_lock = threading.Lock()
        # Flush-worker supervision: flushes are numbered from 1 as they
        # start; ``_flushing`` is the number of the current worker's
        # in-progress flush (None between flushes); ``_gen`` identifies
        # the *current* worker thread, so an abandoned, still-wedged
        # predecessor can tell it has been replaced.
        self._flushes_started = 0
        self._flushing: int | None = None
        self._gen = 0
        self._replacements = 0
        self._worker = threading.Thread(
            target=self._run, args=(0,), name="repro-serve-microbatch", daemon=True
        )
        self._worker.start()

    def submit(self, x: np.ndarray) -> np.ndarray:
        """Block until the batch containing ``x`` flushes; return its slice.

        Raises :class:`Overloaded` (without enqueueing) when
        ``max_pending`` submissions are already waiting, and
        :class:`PredictTimeout` when the flush misses ``timeout_s``.
        """
        item = _Pending(np.atleast_2d(np.asarray(x, dtype=float)))
        with self._submit_lock:
            if self._closed:
                raise BatcherClosed("MicroBatcher is closed")
            if self.max_pending is not None and self._pending >= self.max_pending:
                raise Overloaded("overloaded")
            self._pending += 1
            item.queued_after = self._flushes_started
            self._queue.put(item)
        if not item.event.wait(self.timeout_s):
            # Abandon the item (a late flush setting its event is
            # harmless — nobody is reading it) and check whether the
            # flush worker itself is the thing that is stuck.
            self._replace_wedged_worker(item)
            raise PredictTimeout(
                f"predict timed out after {self.timeout_s:.3f}s"
            )
        if item.error is not None:
            raise item.error
        return item.result

    def _replace_wedged_worker(self, item: _Pending) -> None:
        """Spawn a fresh flush worker when the current one is stuck.

        Called from the submitter of ``item`` when it timed out.  The
        worker is stuck when the flush still in progress is the one that
        took ``item`` (it outlived the item's timeout) or one that was
        already running when ``item`` was queued (it ran for the whole
        wait).  A flush started later that did not take ``item`` shows
        the worker making progress (``item`` was queued behind it), so
        nothing is replaced.  The flush's age cannot decide this: the
        flush that takes an item starts after the item was queued, so
        when it wedges it is younger than the timeout as the submitter
        gives up.  The stuck thread cannot be killed (Python offers no
        such thing), so it is *abandoned*: a generation bump tells it to
        exit as soon as its flush_fn ever returns, and a replacement
        takes over the queue immediately — one slow model costs its own
        requests a 504, not the server its flush pipeline.  Replacing a
        merely-slow (not wedged) worker is harmless: both drain the same
        queue, each item is flushed by exactly one of them.
        """
        with self._submit_lock:
            if self._closed:
                return
            running = self._flushing
            if running is None:
                return  # no flush in progress: the worker is not stuck
            if running != item.flush and running > item.queued_after:
                return  # worker is making progress; we were just queued behind
            self._gen += 1
            self._flushing = None
            self._replacements += 1
            self._worker = threading.Thread(
                target=self._run,
                args=(self._gen,),
                name="repro-serve-microbatch",
                daemon=True,
            )
            self._worker.start()

    def _drained(self, n: int = 1) -> None:
        """Account ``n`` submissions leaving the pending queue."""
        if self.max_pending is not None:
            with self._submit_lock:
                self._pending -= n

    def close(self) -> None:
        """Stop the worker after draining in-flight items."""
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._worker.join(timeout=5.0)

    def _collect(self, first: _Pending) -> list:
        """Gather one batch: ``first`` plus whatever is already queued."""
        batch = [first]
        rows = len(first.x)
        while rows < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:  # close sentinel: stop collecting, flush what we have
                self._queue.put(None)
                break
            self._drained()
            batch.append(item)
            rows += len(item.x)
        return batch

    def _flush(self, batch: list) -> None:
        # Flush per column-width group: coalescing is an optimization, and
        # one request with an odd width must not fail its batchmates (a
        # hook-validated model rejects it per-request anyway; this guards
        # fallback-validated models where np.concatenate would raise).
        groups: dict = {}
        for item in batch:
            groups.setdefault(item.x.shape[1], []).append(item)
        for group in groups.values():
            self._flush_group(group)

    def _flush_group(self, batch: list) -> None:
        total = sum(len(item.x) for item in batch)
        try:
            ys = self._flush_fn(np.concatenate([item.x for item in batch]))
            ys = np.asarray(ys, dtype=float)
            # A flush_fn returning the wrong number of rows used to be
            # sliced apart silently — every submitter after the first
            # mismatch got a wrong-length (or wrong-owner) result.  Fail
            # the whole batch loudly instead.
            if ys.ndim != 1 or len(ys) != total:
                raise RuntimeError(
                    f"flush returned shape {ys.shape} for a batch of "
                    f"{total} rows; refusing to mis-slice results"
                )
            offset = 0
            for item in batch:
                item.result = ys[offset : offset + len(item.x)]
                offset += len(item.x)
        except BaseException as exc:  # propagate to every waiter in the batch
            for item in batch:
                item.error = exc
        finally:
            for item in batch:
                item.event.set()

    def _run(self, gen: int) -> None:
        while True:
            item = self._queue.get()
            with self._submit_lock:
                stale = gen != self._gen
            if stale:
                # Replaced while waiting: hand whatever we dequeued (an
                # item, or the close sentinel) to the successor and exit.
                self._queue.put(item)
                return
            if item is None:
                return
            self._drained()
            batch = self._collect(item)
            with self._submit_lock:
                self._flushes_started += 1
                for member in batch:
                    member.flush = self._flushes_started
                if gen == self._gen:
                    self._flushing = self._flushes_started
            try:
                self._flush(batch)
            finally:
                with self._submit_lock:
                    if gen == self._gen:
                        self._flushing = None
                    stale = gen != self._gen
            if stale:
                # Our wedged flush finally returned, but a replacement
                # already owns the queue; those waiters were answered
                # late (harmlessly — they stopped listening), we leave.
                return


class ModelServer:
    """Protocol layer: JSON requests in, JSON responses out.

    Transport-agnostic — the HTTP handler and the stdin loop both call
    :meth:`handle`.  ``microbatch=True`` (the HTTP default) routes
    predictions through one :class:`MicroBatcher` per engine so
    concurrent requests coalesce; the single-threaded stdin transport
    leaves it off.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        default_model: str | None = None,
        max_batch: int = 256,
        microbatch: bool = False,
        engine_cache_size: int = 16,
        max_inflight: int | None = None,
        request_timeout_ms: float | None = None,
    ):
        self.registry = registry
        self.default_model = default_model
        self.max_batch = int(max_batch)
        self.microbatch = bool(microbatch)
        # Per-request predict budget (microbatched transports only): a
        # flush missing it answers 504 instead of wedging its handler
        # thread forever.  ``None``/``0`` disables (the stdin default —
        # single-threaded, nothing else to protect).
        self.request_timeout_s = (
            None if not request_timeout_ms else float(request_timeout_ms) / 1e3
        )
        # Engines pin their deserialized model (and, when microbatching,
        # a worker thread), so the cache is LRU-bounded: a long-running
        # server in the republish-while-serving regime must not
        # accumulate one engine per superseded version forever.
        self.engine_cache_size = max(int(engine_cache_size), 1)
        # Admission control: at most ``max_inflight`` predict requests
        # may be inside the engine at once; excess requests are shed
        # with an ``overloaded`` response instead of queueing without
        # bound (None disables shedding — the single-process default).
        self.max_inflight = None if max_inflight is None else max(int(max_inflight), 1)
        self._inflight = 0
        self._shed = 0
        self._closed = False
        self._lock = threading.Lock()
        self._engines: OrderedDict = OrderedDict()  # (name, ver, digest) -> engine
        self._batchers: dict = {}            # engine ref ("name@vN") -> MicroBatcher
        self._schemas: OrderedDict = OrderedDict()  # digest -> describe() or None

    # -- engine resolution -----------------------------------------------------

    @staticmethod
    def _split_ref(ref: str) -> tuple:
        """``"name@vN"`` / ``"name@N"`` -> ``(name, N, None)``; channel refs
        ``"name@latest"`` / ``"name@shadow"`` -> ``(name, None, channel)``;
        bare names -> ``(name, None, None)``."""
        name, sep, ver = str(ref).partition("@")
        if not sep:
            return name, None, None
        if ver in ("latest", "shadow"):
            return name, None, ver
        ver = ver[1:] if ver[:1] in ("v", "V") else ver
        try:
            return name, int(ver), None
        except ValueError:
            raise ValueError(
                f"bad model reference {ref!r}: want name@vN, name@latest, "
                "or name@shadow"
            ) from None

    def engine_for(self, ref, version=None) -> PredictionEngine:
        """The (LRU-cached) engine for a model reference, resolved fresh."""
        name, ref_version, channel = self._split_ref(ref)
        if version is None:
            version = ref_version
        mv = self.registry.resolve(name, version, channel=channel)
        key = (mv.name, mv.version, mv.digest)
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                return engine
        model, mv = self.registry.load_resolved(mv)
        evicted = []
        with self._lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = PredictionEngine(model, name=mv.ref)
                self._engines[key] = engine
                while len(self._engines) > self.engine_cache_size:
                    _, old = self._engines.popitem(last=False)
                    batcher = self._batchers.pop(old.name, None)
                    if batcher is not None:
                        evicted.append(batcher)
            else:
                self._engines.move_to_end(key)
        for batcher in evicted:  # close outside the lock (joins a thread)
            batcher.close()
        return engine

    def _predict(self, engine: PredictionEngine, X: np.ndarray) -> np.ndarray:
        """Run an already-validated batch through the engine.

        ``validate=False`` throughout: :meth:`_handle_predict` validated
        this request's rows, which is what protects batchmates — scanning
        the coalesced flush again would only re-do that work.
        """
        if not self.microbatch:
            return engine.predict(X, validate=False)
        flush = lambda batch: engine.predict(batch, validate=False)
        key = engine.name
        for _ in range(3):
            with self._lock:
                batcher = self._batchers.get(key)
                if batcher is None:
                    # Only (re)create a batcher while its engine is still
                    # cached and the server is open.  A racing predict
                    # used to re-install a batcher for a just-evicted
                    # engine — nothing would ever close it again, leaking
                    # the batcher and its daemon worker thread.
                    if self._closed or engine not in self._engines.values():
                        break
                    batcher = MicroBatcher(
                        flush,
                        max_batch=self.max_batch,
                        max_pending=self.max_inflight,
                        timeout_s=self.request_timeout_s,
                    )
                    self._batchers[key] = batcher
            try:
                return batcher.submit(X)
            except BatcherClosed:
                # Lost a race with engine eviction closing this batcher;
                # drop the dead entry and retry on a fresh one.  Model
                # errors are NOT caught here — they propagate to handle()
                # without abandoning (and thereby leaking) live batchers.
                with self._lock:
                    if self._batchers.get(key) is batcher:
                        del self._batchers[key]
        # Evicted (or closing) mid-request: answer directly on the engine
        # we already hold rather than batching through infrastructure
        # that no longer owns it.
        return engine.predict(X, validate=False)

    def close(self) -> None:
        """Stop all batchers; idempotent, and final.

        Setting ``_closed`` under the lock before draining means a
        predict racing close can no longer install a fresh batcher
        after the drain — the leak path the old implementation left
        open (close-then-install made both the batcher and its worker
        thread unreachable).
        """
        with self._lock:
            self._closed = True
            batchers, self._batchers = list(self._batchers.values()), {}
        for b in batchers:
            b.close()

    # -- protocol --------------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Answer one protocol request; errors become ``ok: false`` responses."""
        try:
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op", "predict")
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "models":
                return {"ok": True, "models": self._list_models()}
            if op == "stats":
                with self._lock:
                    engines = list(self._engines.values())
                    shed, inflight = self._shed, self._inflight
                return {
                    "ok": True,
                    "engines": [e.stats() for e in engines],
                    "registry": self.registry.cache_info(),
                    "admission": {
                        "max_inflight": self.max_inflight,
                        "inflight": inflight,
                        "shed": shed,
                    },
                }
            if op == "predict":
                return self._handle_predict(request)
            raise ValueError(f"unknown op {op!r}")
        except Overloaded:
            # Admission control shed the request.  ``code`` lets the
            # HTTP transport answer 503, so a client knows to back off
            # and retry instead of treating it as a malformed request.
            return {"ok": False, "error": "overloaded", "code": 503}
        except PredictTimeout:
            # Must precede the RuntimeError clause below (it is one):
            # a missed deadline is 504, not a model-level refusal.
            return {"ok": False, "error": "timeout", "code": 504}
        except KeyError as exc:
            # Unknown model/version: 404, not 400 — a load balancer must
            # be able to tell a miss from a malformed request.
            return {"ok": False, "error": f"not found: {exc.args[0]}", "code": 404}
        except (ValueError, TypeError, RuntimeError) as exc:
            # RuntimeError covers model-level refusals (e.g. an unfitted
            # model published to the registry).
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # the protocol boundary: "failures never
            # kill the server" must hold for *any* model-raised exception
            # (LinAlgError, IndexError, ...), not just the expected types.
            return {
                "ok": False,
                "error": f"internal error: {type(exc).__name__}: {exc}",
            }

    def _handle_predict(self, request: dict) -> dict:
        ref = request.get("model") or self.default_model
        if not ref:
            raise ValueError("no 'model' in request and no default model")
        if "x" not in request:
            raise ValueError("predict request needs 'x': a list of query rows")
        try:
            X = np.asarray(request["x"], dtype=float)
        except (ValueError, TypeError):
            raise ValueError("'x' must be a numeric array of query rows") from None
        self._admit()
        try:
            engine = self.engine_for(ref, request.get("version"))
            X = engine.validate(X)
            t0 = time.perf_counter()
            y = self._predict(engine, X)
            latency_ms = 1e3 * (time.perf_counter() - t0)
        finally:
            self._release()
        return {
            "ok": True,
            "model": engine.name,
            "n": int(len(y)),
            "y": _jsonable_predictions(y),
            "latency_ms": latency_ms,
        }

    def _admit(self) -> None:
        """Count a predict in; shed (raise Overloaded) past the limit."""
        if self.max_inflight is None:
            return
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._shed += 1
                raise Overloaded("overloaded")
            self._inflight += 1

    def _release(self) -> None:
        if self.max_inflight is None:
            return
        with self._lock:
            self._inflight -= 1

    def _schema_for(self, mv) -> dict | None:
        """Memoized ``describe()`` record per digest.

        Computed at most once per blob, so a periodic ``models`` poll
        neither re-deserializes every published model nor thrashes the
        registry's LRU out from under the serving hot path.  Failures are
        *not* memoized (a transiently unreadable blob should not report
        ``schema: null`` forever), and the memo is LRU-bounded so a
        republish-heavy server cannot grow it without limit.
        """
        with self._lock:
            if mv.digest in self._schemas:
                self._schemas.move_to_end(mv.digest)
                return self._schemas[mv.digest]
        try:
            model, _ = self.registry.load_resolved(mv)
        except KeyError:
            return None  # transient: retry on the next request
        schema = None
        describe = getattr(model, "describe", None)
        if callable(describe):
            try:
                schema = describe()
            except RuntimeError:
                schema = None  # e.g. an unfitted model was published
        with self._lock:
            self._schemas[mv.digest] = schema
            self._schemas.move_to_end(mv.digest)
            while len(self._schemas) > 4 * self.engine_cache_size:
                self._schemas.popitem(last=False)
        return schema

    def _list_models(self) -> list:
        out = []
        for name in self.registry.names():
            mv = self.registry.resolve(name)
            entry = mv.to_record()
            entry["versions"] = self.registry.versions(name)
            entry["schema"] = self._schema_for(mv)
            out.append(entry)
        return out


# -- transports ----------------------------------------------------------------


def _http_handler(server: ModelServer):
    """A request-handler class bound to one :class:`ModelServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # ``_reply`` sends headers and body as two writes on an unbuffered
        # socket; with Nagle on, the body waits for the client's delayed
        # ACK of the headers (~40 ms on Linux).  The stdlib sets
        # TCP_NODELAY in ``StreamRequestHandler.setup`` for this flag.
        disable_nagle_algorithm = True

        def _reply(self, payload: dict, status: int = 200) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # health / liveness probe
            self._reply(server.handle({"op": "ping"}))

        def do_POST(self):
            try:
                length = int(self.headers.get("Content-Length", 0))
                request = json.loads(self.rfile.read(length) or b"{}")
            except (ValueError, json.JSONDecodeError):
                self._reply({"ok": False, "error": "bad JSON request body"}, 400)
                return
            response = server.handle(request)
            # Failures carry an optional ``code`` (404 unknown model,
            # 503 overloaded); anything else malformed is a plain 400.
            status = 200 if response.get("ok") else int(response.get("code", 400))
            self._reply(response, status)

        def log_message(self, fmt, *args):  # keep stdout for the protocol
            print(f"[serve] {fmt % args}", file=sys.stderr)

    return Handler


def serve_http(server: ModelServer, port: int, host: str = "127.0.0.1"):
    """Build (not start) the threaded HTTP server; caller owns its lifecycle."""
    return ThreadingHTTPServer((host, port), _http_handler(server))


def serve_stdin(server: ModelServer, lines=None, out=None) -> int:
    """Line protocol: one JSON request per line in, one response per line out."""
    lines = sys.stdin if lines is None else lines
    out = sys.stdout if out is None else out
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"bad JSON: {exc}"}
        else:
            response = server.handle(request)
        print(json.dumps(response), file=out, flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve published performance models over JSON.",
    )
    parser.add_argument("--registry", required=True,
                        help="ModelRegistry directory (see repro.serve)")
    transport = parser.add_mutually_exclusive_group(required=True)
    transport.add_argument("--http", type=int, metavar="PORT",
                           help="listen for JSON-over-HTTP on this port")
    transport.add_argument("--stdin", action="store_true",
                           help="read one JSON request per stdin line")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--model", default=None,
                        help="default model for predict requests without one")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="microbatch flush size (rows)")
    parser.add_argument("--cache-size", type=int, default=8,
                        help="registry LRU capacity (deserialized models)")
    parser.add_argument("--max-inflight", type=int, default=128,
                        help="in-flight predict bound before requests are "
                             "shed with 503 overloaded")
    parser.add_argument("--request-timeout-ms", type=float, default=30000.0,
                        help="per-request predict budget before a 504 "
                             "(0 disables)")
    parser.add_argument("--fault-plan", default=None, metavar="JSON|@FILE",
                        help="install a repro.faults FaultPlan (chaos runs): "
                             "inline JSON or @path/to/plan.json")
    args = parser.parse_args(argv)

    if args.fault_plan:
        faults.install(faults.plan_from_arg(args.fault_plan))
    else:
        faults.install_from_env()

    registry = ModelRegistry(args.registry, cache_size=args.cache_size)
    server = ModelServer(
        registry,
        default_model=args.model,
        max_batch=args.max_batch,
        microbatch=args.http is not None,
        max_inflight=args.max_inflight,
        request_timeout_ms=args.request_timeout_ms,
    )
    if args.stdin:
        return serve_stdin(server)
    httpd = serve_http(server, args.http, host=args.host)
    host, port = httpd.server_address[:2]
    print(f"[serve] registry={registry.root} listening on http://{host}:{port}",
          file=sys.stderr)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        server.close()
    return 0
