"""Serving subsystem: registry, engine, server protocol, CLI, publish-after-fit."""
from __future__ import annotations

import http.client
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.apps import Broadcast
from repro.core import CPRModel
from repro.datasets import generate_dataset
from repro.serve import MicroBatcher, ModelRegistry, ModelServer, PredictionEngine
from repro.serve.server import serve_http, serve_stdin
from repro.utils.serialization import dumps_model, loads_model, model_digest


@pytest.fixture(scope="module")
def bcast_data():
    app = Broadcast()
    train = generate_dataset(app, 512, seed=0)
    test = generate_dataset(app, 64, seed=1)
    return app, train, test


def _fit(app, train, seed=0, rank=2):
    return CPRModel(
        space=app.space, cells=4, rank=rank, seed=seed, max_sweeps=5
    ).fit(train.X, train.y)


@pytest.fixture(scope="module")
def fitted(bcast_data):
    app, train, _ = bcast_data
    return _fit(app, train)


# -- serialization bytes layer -------------------------------------------------


def test_dumps_loads_model_roundtrip(bcast_data, fitted):
    _, _, test = bcast_data
    clone = loads_model(dumps_model(fitted))
    np.testing.assert_allclose(clone.predict(test.X), fitted.predict(test.X))


def test_model_digest_content_addressed(bcast_data, fitted):
    app, train, _ = bcast_data
    assert model_digest(fitted) == model_digest(fitted)  # deterministic
    other = _fit(app, train, seed=7)
    assert model_digest(other) != model_digest(fitted)


def test_model_digest_fixed_point_across_restore(bcast_data, fitted):
    """fit→dump→load→dump must be byte-identical (republish dedup).

    A streaming follower that loads a published model and republishes it
    unchanged must hit the same content-addressed blob; likewise, a
    restored-then-updated model must serialize exactly like a never-
    persisted one (pickle memoization of dtype instances used to leak
    object identity into the bytes — see ``canonical_array``).
    """
    app, train, _ = bcast_data
    clone = loads_model(dumps_model(fitted))
    assert model_digest(clone) == model_digest(fitted)
    assert model_digest(loads_model(dumps_model(clone))) == model_digest(fitted)
    new = generate_dataset(app, 64, seed=5)
    a = _fit(app, train)
    b = loads_model(dumps_model(fitted))
    a.partial_fit(new.X, new.y)
    b.partial_fit(new.X, new.y)
    assert model_digest(a) == model_digest(b)


# -- registry ------------------------------------------------------------------


def test_registry_publish_load_roundtrip(tmp_path, bcast_data, fitted):
    _, _, test = bcast_data
    reg = ModelRegistry(tmp_path)
    mv = reg.publish("bcast", fitted, meta={"app": "bcast"})
    assert mv.version == 1 and mv.ref == "bcast@v1"
    # publish stamps the fitting kernel backend and served rank
    # alongside caller meta
    assert mv.meta == {"app": "bcast",
                       "kernel_backend": fitted.fit_backend_,
                       "rank": 2}
    loaded = reg.load("bcast")
    np.testing.assert_allclose(loaded.predict(test.X), fitted.predict(test.X))
    assert "bcast" in reg and "nope" not in reg
    assert reg.names() == ["bcast"]
    assert reg.versions("bcast") == [1]


def test_registry_versioning_and_dedup(tmp_path, bcast_data, fitted):
    app, train, _ = bcast_data
    reg = ModelRegistry(tmp_path)
    v1 = reg.publish("m", fitted)
    v2 = reg.publish("m", fitted)  # identical bytes -> same blob, new version
    v3 = reg.publish("m", _fit(app, train, seed=3))
    assert [v1.version, v2.version, v3.version] == [1, 2, 3]
    assert v1.digest == v2.digest != v3.digest
    assert len(list((tmp_path / "objects").glob("*.pkl"))) == 2  # deduplicated
    assert reg.resolve("m").version == 3  # latest
    assert reg.resolve("m", 2).digest == v1.digest


def test_registry_errors(tmp_path, fitted):
    reg = ModelRegistry(tmp_path)
    with pytest.raises(KeyError):
        reg.load("absent")
    reg.publish("m", fitted)
    with pytest.raises(KeyError):
        reg.load("m", version=5)
    for bad in ("", "../escape", "a/b", ".hidden"):
        with pytest.raises(ValueError):
            reg.publish(bad, fitted)


def test_registry_lru_eviction_and_counters(tmp_path, bcast_data):
    app, train, _ = bcast_data
    reg = ModelRegistry(tmp_path, cache_size=2)
    for i in range(3):
        reg.publish(f"m{i}", _fit(app, train, seed=i))
    reg.load("m0")
    reg.load("m1")
    reg.load("m0")  # hit; m0 becomes most-recent
    reg.load("m2")  # evicts m1
    info = reg.cache_info()
    assert info["size"] == 2 and info["capacity"] == 2
    assert info["hits"] == 1 and info["misses"] == 3
    reg.load("m1")  # miss again after eviction
    assert reg.cache_info()["misses"] == 4


def test_registry_cache_never_stale_after_republish(tmp_path, bcast_data):
    """Re-publishing under the same name must be visible immediately."""
    app, train, test = bcast_data
    reg = ModelRegistry(tmp_path, cache_size=4)
    first = _fit(app, train, seed=0)
    reg.publish("m", first)
    np.testing.assert_allclose(reg.load("m").predict(test.X), first.predict(test.X))
    second = _fit(app, train, seed=9, rank=3)
    reg.publish("m", second)
    served = reg.load("m")  # cache held `first`; must not serve it for v2
    np.testing.assert_allclose(served.predict(test.X), second.predict(test.X))
    assert model_digest(served) == model_digest(second)
    # The old version stays addressable.
    np.testing.assert_allclose(
        reg.load("m", version=1).predict(test.X), first.predict(test.X)
    )


def test_registry_concurrent_publish_and_load(tmp_path, bcast_data):
    """Parallel publish/load of one name: distinct versions, no torn reads."""
    app, train, test = bcast_data
    models = [_fit(app, train, seed=s) for s in range(4)]
    digests = {model_digest(m) for m in models}
    reg = ModelRegistry(tmp_path, cache_size=2)
    reg.publish("m", models[0])

    errors: list = []
    seen: list = []
    start = threading.Barrier(8)

    def publisher(model):
        try:
            start.wait()
            for _ in range(3):
                reg.publish("m", model)
        except BaseException as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)

    def loader():
        try:
            start.wait()
            for _ in range(10):
                served = ModelRegistry(tmp_path, cache_size=2).load("m")
                seen.append(model_digest(served))
        except BaseException as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)

    threads = [threading.Thread(target=publisher, args=(m,)) for m in models]
    threads += [threading.Thread(target=loader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    # 1 initial + 4 publishers x 3 publishes = 13 dense distinct versions.
    assert reg.versions("m") == list(range(1, 14))
    # Every load observed one of the actually-published models.
    assert set(seen) <= digests


# -- engine --------------------------------------------------------------------


def test_engine_matches_model_predict(bcast_data, fitted):
    _, _, test = bcast_data
    engine = PredictionEngine(fitted, name="bcast@v1")
    np.testing.assert_allclose(engine.predict(test.X), fitted.predict(test.X))
    stats = engine.stats()
    assert stats["batches"] == 1 and stats["queries"] == len(test.X)
    assert stats["queries_per_second"] > 0


def test_engine_chunks_large_batches(bcast_data, fitted):
    _, _, test = bcast_data
    whole = PredictionEngine(fitted).predict(test.X)
    chunked_engine = PredictionEngine(fitted, max_batch=7)
    np.testing.assert_allclose(chunked_engine.predict(test.X), whole)
    assert chunked_engine.stats()["batches"] == 1  # chunking is internal


def test_engine_rejects_bad_batches(fitted):
    engine = PredictionEngine(fitted)
    with pytest.raises(ValueError, match="3 columns"):
        engine.predict([[1.0, 2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        engine.predict([[1.0, np.nan, 65536.0]])


def test_model_validate_queries_and_empty_batch(bcast_data, fitted):
    _, _, test = bcast_data
    X = fitted.validate_queries(test.X.tolist())
    assert X.shape == test.X.shape
    with pytest.raises(ValueError, match="2-dimensional"):
        fitted.validate_queries(np.zeros((2, 2, 2)))
    assert fitted.predict(np.empty((0, 3))).shape == (0,)
    assert PredictionEngine(fitted).predict(np.empty((0, 3))).shape == (0,)


def test_model_describe_is_json_roundtrippable(fitted):
    desc = json.loads(json.dumps(fitted.describe()))
    assert desc["order"] == 3 and len(desc["modes"]) == 3
    assert desc["modes"][0]["name"] == "nodes"
    # The modeling domain is ascertained from training data, so the msg
    # mode's high edge is near (not exactly) the space's 2^26 bound.
    assert desc["modes"][2]["high"] > 2**25


# -- microbatcher --------------------------------------------------------------


def _gated(fn):
    """``fn`` wrapped so that its first call blocks until released.

    Returns ``(flush_fn, flushing, release, sizes)``: ``flushing`` is set
    once the first call is blocked, ``release`` unblocks it, and
    ``sizes`` records the row count of every call in order.
    """
    flushing, release = threading.Event(), threading.Event()
    sizes: list = []

    def flush(X):
        sizes.append(len(X))
        if len(sizes) == 1:
            flushing.set()
            release.wait(timeout=10)
        return fn(X)

    return flush, flushing, release, sizes


def _submit_behind_busy_flush(mb, flushing, release, requests):
    """Submit ``requests[0]`` and hold the worker inside its flush; queue
    the rest behind it, then release.  Returns each request's result."""
    outs: dict = {}

    def client(i):
        outs[i] = mb.submit(requests[i])

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(requests))]
    threads[0].start()
    assert flushing.wait(timeout=10)
    for t in threads[1:]:
        t.start()
    deadline = time.time() + 10
    while mb._queue.qsize() < len(requests) - 1 and time.time() < deadline:
        time.sleep(0.002)
    assert mb._queue.qsize() == len(requests) - 1
    release.set()
    for t in threads:
        t.join(timeout=10)
    return [outs[i] for i in range(len(requests))]


def test_microbatcher_slices_and_coalesces():
    flush, flushing, release, sizes = _gated(lambda X: X[:, 0] * 10.0)
    mb = MicroBatcher(flush, max_batch=64)
    try:
        requests = [np.zeros((1, 1))]
        requests += [np.full((2, 1), float(i)) for i in range(1, 6)]
        outs = _submit_behind_busy_flush(mb, flushing, release, requests)
        for x, y in zip(requests, outs):
            np.testing.assert_allclose(y, 10.0 * x[:, 0])
        # The lone first request flushed at once; the five queued behind
        # the running flush went out together as the next batch.
        assert sizes == [1, 10]
    finally:
        release.set()
        mb.close()


def test_microbatcher_drain_stops_at_max_batch():
    flush, flushing, release, sizes = _gated(lambda X: X[:, 0])
    mb = MicroBatcher(flush, max_batch=4)
    try:
        requests = [np.zeros((1, 1))]
        requests += [np.full((2, 1), float(i)) for i in range(1, 6)]
        outs = _submit_behind_busy_flush(mb, flushing, release, requests)
        for x, y in zip(requests, outs):
            np.testing.assert_allclose(y, x[:, 0])
        assert sizes == [1, 4, 4, 2]
    finally:
        release.set()
        mb.close()


def test_microbatcher_stress_every_submitter_gets_its_own_rows():
    """More submitters than cores, frequent thread switches: no row is
    lost, duplicated or handed to another submitter."""
    sizes: list = []

    def flush(X):
        sizes.append(len(X))
        return X[:, 0] * 2.0 + X[:, 1]

    mb = MicroBatcher(flush, max_batch=16)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    errors: list = []

    def client(c):
        try:
            for i in range(40):
                n = 1 + (c + i) % 3
                x = np.column_stack(
                    [np.arange(n) + 1000.0 * c + 10.0 * i, np.full(n, c)]
                )
                np.testing.assert_array_equal(mb.submit(x), x[:, 0] * 2.0 + c)
        except BaseException as exc:
            errors.append(exc)

    try:
        threads = [threading.Thread(target=client, args=(c,)) for c in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
        mb.close()
    assert not errors, errors[:2]
    assert sum(sizes) == sum(1 + (c + i) % 3 for c in range(8) for i in range(40))
    # A drain stops once it reaches max_batch rows; one request may cross it.
    assert max(sizes) < 16 + 3


def test_microbatcher_propagates_errors_and_closes():
    def boom(X):
        raise ValueError("bad batch")

    mb = MicroBatcher(boom, max_batch=4)
    with pytest.raises(ValueError, match="bad batch"):
        mb.submit([[1.0]])
    mb.close()
    with pytest.raises(RuntimeError, match="closed"):
        mb.submit([[1.0]])


# -- server protocol -----------------------------------------------------------


@pytest.fixture()
def server(tmp_path, bcast_data, fitted):
    app, train, _ = bcast_data
    reg = ModelRegistry(tmp_path)
    reg.publish("bcast", fitted, meta={"app": "bcast"})
    reg.publish("other", _fit(app, train, seed=5))
    return ModelServer(reg, default_model="bcast"), reg


def test_server_ping_models_stats(server, fitted):
    srv, _ = server
    assert srv.handle({"op": "ping"}) == {"ok": True, "op": "ping"}
    models = srv.handle({"op": "models"})
    assert models["ok"]
    by_name = {m["name"]: m for m in models["models"]}
    assert set(by_name) == {"bcast", "other"}
    assert by_name["bcast"]["versions"] == [1]
    assert by_name["bcast"]["schema"]["order"] == 3
    stats = srv.handle({"op": "stats"})
    assert stats["ok"] and stats["registry"]["capacity"] == 8


def test_server_predict_roundtrip(server, bcast_data, fitted):
    srv, _ = server
    _, _, test = bcast_data
    resp = srv.handle({"op": "predict", "x": test.X[:4].tolist()})
    assert resp["ok"] and resp["model"] == "bcast@v1" and resp["n"] == 4
    np.testing.assert_allclose(resp["y"], fitted.predict(test.X[:4]))
    assert resp["latency_ms"] >= 0.0
    # Explicit name@version references resolve too.
    resp2 = srv.handle(
        {"op": "predict", "model": "bcast@v1", "x": test.X[:1].tolist()}
    )
    assert resp2["ok"] and resp2["model"] == "bcast@v1"


def test_server_error_responses(server):
    srv, _ = server
    assert not srv.handle({"op": "nope"})["ok"]
    assert "not found" in srv.handle(
        {"op": "predict", "model": "absent", "x": [[1, 1, 65536]]}
    )["error"]
    assert "columns" in srv.handle({"op": "predict", "x": [[1, 1]]})["error"]
    assert "'x'" in srv.handle({"op": "predict"})["error"]
    assert not srv.handle({"op": "predict", "x": [["a", "b", "c"]]})["ok"]
    assert not srv.handle([1, 2, 3])["ok"]


def test_server_picks_up_republish_without_restart(server, bcast_data):
    srv, reg = server
    app, train, test = bcast_data
    before = srv.handle({"op": "predict", "x": test.X[:2].tolist()})
    newer = _fit(app, train, seed=11, rank=3)
    reg.publish("bcast", newer)
    after = srv.handle({"op": "predict", "x": test.X[:2].tolist()})
    assert before["model"] == "bcast@v1" and after["model"] == "bcast@v2"
    np.testing.assert_allclose(after["y"], newer.predict(test.X[:2]))


def test_serve_stdin_line_protocol(server, bcast_data, fitted):
    srv, _ = server
    _, _, test = bcast_data
    lines = io.StringIO(
        json.dumps({"op": "predict", "x": test.X[:2].tolist()})
        + "\n\nnot json\n"
        + json.dumps({"op": "ping"})
        + "\n"
    )
    out = io.StringIO()
    assert serve_stdin(srv, lines=lines, out=out) == 0
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(responses) == 3  # blank line skipped
    assert responses[0]["ok"] and responses[0]["n"] == 2
    np.testing.assert_allclose(responses[0]["y"], fitted.predict(test.X[:2]))
    assert not responses[1]["ok"] and "bad JSON" in responses[1]["error"]
    assert responses[2] == {"ok": True, "op": "ping"}


def test_http_keepalive_predicts_do_not_wait_for_delayed_ack(
    tmp_path, bcast_data, fitted
):
    """Sequential predicts on one keep-alive connection answer promptly.

    A reply sent as two writes (headers, then body) with Nagle's
    algorithm on stalls each round trip on the client's ~40 ms
    delayed-ACK timer; the median must stay well under that.
    """
    app, _, _ = bcast_data
    X = generate_dataset(app, 128, seed=3).X
    reg = ModelRegistry(tmp_path)
    reg.publish("bcast", fitted)
    srv = ModelServer(reg, default_model="bcast", microbatch=True)
    httpd = serve_http(srv, 0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    conn = http.client.HTTPConnection("127.0.0.1", httpd.server_address[1], timeout=30)
    try:
        body = json.dumps({"op": "predict", "x": X.tolist()})
        round_trips = []
        for _ in range(30):
            t0 = time.perf_counter()
            conn.request("POST", "/", body)
            resp = conn.getresponse()
            out = json.loads(resp.read())
            round_trips.append(1e3 * (time.perf_counter() - t0))
            assert resp.status == 200 and out["n"] == len(X), out
        np.testing.assert_allclose(out["y"], fitted.predict(X))
        assert np.median(round_trips) < 20.0, sorted(round_trips)
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()
        srv.close()


#: The stderr line that reports the bound port; perfbench/harness.py parses
#: it with this same pattern, so the two must stay in step.
_LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")


def test_cli_http_serves_and_exits_on_sigterm(tmp_path, bcast_data, fitted):
    """``python -m repro.serve --http 0`` as a process: port line, exact
    predictions over the socket, and a prompt exit on SIGTERM."""
    _, _, test = bcast_data
    ModelRegistry(tmp_path / "reg").publish("m", fitted)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_FAULTS", None)
    log_path = tmp_path / "serve.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--registry",
             str(tmp_path / "reg"), "--http", "0", "--model", "m"],
            env=env, stdout=subprocess.DEVNULL, stderr=log,
        )
    try:
        deadline = time.monotonic() + 30
        match = None
        while match is None and proc.poll() is None and time.monotonic() < deadline:
            match = _LISTEN_RE.search(log_path.read_text(errors="replace"))
            time.sleep(0.02)
        assert match, log_path.read_text(errors="replace")
        host, port = match.group(1), int(match.group(2))

        def rpc(body):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("POST", "/", json.dumps(body))
                resp = conn.getresponse()
                return resp.status, json.loads(resp.read())
            finally:
                conn.close()

        assert rpc({"op": "ping"}) == (200, {"ok": True, "op": "ping"})
        status, out = rpc({"op": "predict", "x": test.X.tolist()})
        assert status == 200 and out["model"] == "m@v1", out
        assert np.array_equal(np.asarray(out["y"]), fitted.predict(test.X))
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=15)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_server_microbatched_predictions_match(tmp_path, bcast_data, fitted):
    _, _, test = bcast_data
    reg = ModelRegistry(tmp_path)
    reg.publish("bcast", fitted)
    srv = ModelServer(reg, default_model="bcast", microbatch=True)
    try:
        expect = fitted.predict(test.X)
        results = {}

        def client(i):
            resp = srv.handle({"op": "predict", "x": test.X[i : i + 8].tolist()})
            results[i] = resp

        threads = [threading.Thread(target=client, args=(i,)) for i in (0, 8, 16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in (0, 8, 16):
            assert results[i]["ok"]
            np.testing.assert_allclose(results[i]["y"], expect[i : i + 8])
        engine = srv.engine_for("bcast")
        assert engine.stats()["queries"] == 24
    finally:
        srv.close()


class _InfModel:
    """Module-level (hence picklable) stub whose predictions overflow."""

    def predict(self, X):
        return np.full(len(np.atleast_2d(X)), np.inf)


class _BrokenModel:
    """Picklable stub that fails at predict time with a RuntimeError."""

    def predict(self, X):
        raise RuntimeError("internal model failure")


class _OddModel:
    """Picklable stub that fails with an unanticipated exception type."""

    def predict(self, X):
        raise IndexError("surprise")


def test_server_contains_runtime_errors(tmp_path):
    """Model-level RuntimeError becomes an ok:false response, never a crash."""
    reg = ModelRegistry(tmp_path)
    reg.publish("broken", _BrokenModel())
    srv = ModelServer(reg)
    resp = srv.handle({"op": "predict", "model": "broken", "x": [[1.0]]})
    assert not resp["ok"] and "internal model failure" in resp["error"]
    # The registry refuses to publish an unfitted minimal-state model at
    # publish time (the earlier failure point), not at serve time.
    from repro.core import CPRModel

    with pytest.raises(RuntimeError, match="not fitted"):
        reg.publish("unfitted", CPRModel())


def test_server_contains_arbitrary_exceptions_and_stdin_survives(tmp_path):
    """Any model exception -> ok:false; the stdin loop keeps serving."""
    reg = ModelRegistry(tmp_path)
    reg.publish("odd", _OddModel())
    srv = ModelServer(reg)
    resp = srv.handle({"op": "predict", "model": "odd", "x": [[1.0]]})
    assert not resp["ok"] and "IndexError" in resp["error"]
    lines = io.StringIO(
        json.dumps({"op": "predict", "model": "odd", "x": [[1.0]]})
        + "\n"
        + json.dumps({"op": "ping"})
        + "\n"
    )
    out = io.StringIO()
    assert serve_stdin(srv, lines=lines, out=out) == 0
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert not responses[0]["ok"]
    assert responses[1] == {"ok": True, "op": "ping"}  # server survived


def test_microbatched_model_errors_do_not_leak_batchers(tmp_path):
    """Model failures under microbatching must not abandon worker threads."""
    reg = ModelRegistry(tmp_path)
    reg.publish("broken", _BrokenModel())
    srv = ModelServer(reg, microbatch=True)
    try:
        before = sum(
            t.name == "repro-serve-microbatch" for t in threading.enumerate()
        )
        for _ in range(5):
            resp = srv.handle({"op": "predict", "model": "broken", "x": [[1.0]]})
            assert not resp["ok"] and "internal model failure" in resp["error"]
        after = sum(
            t.name == "repro-serve-microbatch" for t in threading.enumerate()
        )
        assert after - before <= 1  # one live batcher, zero abandoned ones
    finally:
        srv.close()


def test_microbatcher_mixed_widths_flush_separately():
    """Coalesced requests of different column counts must all succeed."""
    flush, flushing, release, sizes = _gated(lambda X: X.sum(axis=1))
    mb = MicroBatcher(flush, max_batch=64)
    try:
        requests = [np.full((1, 2 + (i % 2)), float(i)) for i in range(6)]
        outs = _submit_behind_busy_flush(mb, flushing, release, requests)
        for i, y in enumerate(outs):
            np.testing.assert_allclose(y, [float(i) * (2 + (i % 2))])
        # One coalesced batch of five, flushed as one call per width:
        # rows 1, 3, 5 have three columns, rows 2, 4 have two.
        assert sizes == [1, 3, 2]
    finally:
        release.set()
        mb.close()


def test_model_predict_validate_false_matches(bcast_data, fitted):
    _, _, test = bcast_data
    np.testing.assert_allclose(
        fitted.predict(test.X, validate=False), fitted.predict(test.X)
    )


def test_server_serializes_nonfinite_predictions_as_null(tmp_path):
    reg = ModelRegistry(tmp_path)
    reg.publish("inf", _InfModel())
    srv = ModelServer(reg)
    resp = srv.handle({"op": "predict", "model": "inf", "x": [[1.0], [2.0]]})
    assert resp["ok"] and resp["y"] == [None, None]
    json.loads(json.dumps(resp))  # strict-JSON clean (no Infinity token)


def test_server_engine_cache_is_bounded(tmp_path, bcast_data):
    app, train, _ = bcast_data
    reg = ModelRegistry(tmp_path)
    model = _fit(app, train)
    for i in range(4):
        reg.publish(f"m{i}", model)
    srv = ModelServer(reg, engine_cache_size=2)
    for i in range(4):
        assert srv.handle({"op": "predict", "model": f"m{i}", "x": [[4, 8, 2**20]]})["ok"]
    assert len(srv._engines) == 2  # oldest engines evicted, not accumulated


def test_registry_manifest_never_visible_half_written(tmp_path, fitted):
    """A non-serializable meta fails before any version is claimed."""
    reg = ModelRegistry(tmp_path)
    reg.publish("m", fitted)
    with pytest.raises(TypeError):
        reg.publish("m", fitted, meta={"bad": object()})
    assert reg.versions("m") == [1]  # no orphan v2 manifest
    assert reg.resolve("m").version == 1
    assert not list(reg._model_dir("m").glob("*.tmp"))


def test_registry_torn_latest_manifest_falls_back(tmp_path, bcast_data, fitted):
    """A manifest truncated on disk (torn write, partial copy) must not
    take ``name@latest`` down: resolution skips it and serves the newest
    readable predecessor.  Explicit versions still fail loudly."""
    _, _, test = bcast_data
    reg = ModelRegistry(tmp_path)
    reg.publish("m", fitted)
    reg.publish("m", fitted, meta={"tag": "v2"})
    v2_manifest = reg._model_dir("m") / "v0002.json"
    data = v2_manifest.read_bytes()
    v2_manifest.write_bytes(data[: len(data) // 2])  # torn mid-file

    fresh = ModelRegistry(tmp_path)
    mv = fresh.resolve("m")
    assert mv.version == 1
    np.testing.assert_allclose(
        fresh.load("m").predict(test.X[:4]), fitted.predict(test.X[:4])
    )
    with pytest.raises(KeyError):
        fresh.resolve("m", version=2)
    # The next publish claims v3 (numbering never reuses the torn slot)
    # and latest resolution heals forward.
    mv3 = fresh.publish("m", fitted)
    assert mv3.version == 3
    assert fresh.resolve("m").version == 3


def test_registry_all_manifests_torn_raises(tmp_path, fitted):
    reg = ModelRegistry(tmp_path)
    reg.publish("m", fitted)
    manifest = reg._model_dir("m") / "v0001.json"
    manifest.write_bytes(manifest.read_bytes()[:10])
    with pytest.raises(KeyError, match="no readable version"):
        ModelRegistry(tmp_path).resolve("m")


def test_atomic_write_fsyncs_file_and_directory(tmp_path, monkeypatch):
    """The durability contract: temp-file fsync *before* the rename, a
    directory fsync after — losing either reintroduces the crash window
    where a visible manifest points at unwritten blocks."""
    from repro.serve import registry as registry_mod

    synced = []
    real_fsync = os.fsync

    def spy_fsync(fd):
        # Record what kind of object each fsync covered.
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        return real_fsync(fd)

    monkeypatch.setattr(registry_mod.os, "fsync", spy_fsync)
    target = tmp_path / "sub" / "manifest.json"
    registry_mod._atomic_write_bytes(target, b'{"v": 1}')
    assert target.read_bytes() == b'{"v": 1}'
    assert synced == ["file", "dir"]  # both, in write-ahead order
    assert not list(target.parent.glob("*.tmp"))  # nothing left behind


def test_server_concurrent_predict_while_republishing(tmp_path, bcast_data):
    """Stress: predictions racing republishes never see a torn/stale model.

    Extends the PR 4 registry guarantee to the full server path (engine
    cache + microbatcher + protocol): while publishers keep superseding
    ``m``, every concurrent ``predict`` response must (a) succeed and
    (b) equal — exactly — the prediction of one actually-published
    version, with the reported model ref matching the values.  A torn
    read (factors from one version, offset from another) or a stale
    digest-cache entry would produce a vector matching no version.
    """
    app, train, test = bcast_data
    Xq = test.X[:8]
    models = [_fit(app, train, seed=s, rank=2 + (s % 2)) for s in range(6)]
    expected = {}  # version -> prediction vector (versions are dense 1..N)
    reg = ModelRegistry(tmp_path, cache_size=3)
    srv = ModelServer(reg, default_model="m", microbatch=True)
    expected[1] = models[0].predict(Xq)
    reg.publish("m", models[0])

    stop = threading.Event()
    errors: list = []
    bad: list = []
    n_ok = [0]
    start = threading.Barrier(7)

    def publisher():
        try:
            start.wait()
            for i in range(1, 18):
                model = models[i % len(models)]
                # Compute the expectation *before* the version exists so
                # no reader can observe a version we cannot check.
                expected[1 + i] = model.predict(Xq)
                reg.publish("m", model)
                time.sleep(0.001)
        except BaseException as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)
        finally:
            stop.set()

    def client():
        try:
            start.wait()
            while not stop.is_set() or n_ok[0] == 0:
                resp = srv.handle({"op": "predict", "x": Xq.tolist()})
                if not resp.get("ok"):
                    bad.append(resp)
                    continue
                version = int(resp["model"].rsplit("@v", 1)[1])
                want = expected.get(version)
                if want is None or not np.allclose(
                    resp["y"], want, rtol=1e-12, atol=0.0
                ):
                    bad.append(resp)
                n_ok[0] += 1
        except BaseException as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)

    threads = [threading.Thread(target=publisher)]
    threads += [threading.Thread(target=client) for _ in range(6)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        srv.close()
    assert not errors
    assert not bad, f"{len(bad)} response(s) saw a torn or stale model"
    assert n_ok[0] > 0
    # Every client eventually converged on the final published version.
    final = srv.handle({"op": "predict", "x": Xq.tolist()})
    assert final["model"] == "m@v18"
    np.testing.assert_allclose(final["y"], expected[18])


# -- serve-path bugfix sweep ---------------------------------------------------


class _SlowModel:
    """Picklable stub that holds a predict slot long enough to overlap."""

    def predict(self, X):
        time.sleep(0.3)
        return np.zeros(len(np.atleast_2d(X)))


class _MixedModel:
    """Picklable stub returning finite and non-finite predictions."""

    def predict(self, X):
        y = np.arange(float(len(np.atleast_2d(X))))
        y[1::3] = np.inf
        y[2::3] = np.nan
        return y


def test_predict_after_close_never_reinstalls_batcher(tmp_path, bcast_data, fitted):
    """The close/predict race must not leak a fresh batcher + thread.

    Before the fix, a predict thread that looked up a missing batcher
    and then lost the race with ``close()`` installed a brand-new
    batcher into a drained map — unreachable by any future close, its
    worker thread alive for the life of the process.
    """
    _, _, test = bcast_data
    reg = ModelRegistry(tmp_path)
    reg.publish("m", fitted)
    srv = ModelServer(reg, default_model="m", microbatch=True)
    engine = srv.engine_for("m")  # cached before close, as in the race
    srv.close()
    before = sum(
        t.name == "repro-serve-microbatch" for t in threading.enumerate()
    )
    resp = srv.handle({"op": "predict", "x": test.X[:2].tolist()})
    assert resp["ok"]  # still answers (directly on the engine)
    np.testing.assert_allclose(resp["y"], engine.predict(test.X[:2]))
    after = sum(
        t.name == "repro-serve-microbatch" for t in threading.enumerate()
    )
    assert srv._batchers == {}
    assert after == before


def test_eviction_churn_does_not_accumulate_batcher_threads(tmp_path, bcast_data):
    """Engine-cache churn under microbatching closes every evicted batcher."""
    app, train, test = bcast_data
    reg = ModelRegistry(tmp_path)
    model = _fit(app, train)
    for i in range(3):
        reg.publish(f"m{i}", model)
    srv = ModelServer(reg, microbatch=True, engine_cache_size=1)
    try:
        before = sum(
            t.name == "repro-serve-microbatch" for t in threading.enumerate()
        )
        for round_ in range(4):
            for i in range(3):  # every predict evicts the previous engine
                resp = srv.handle(
                    {"op": "predict", "model": f"m{i}", "x": test.X[:1].tolist()}
                )
                assert resp["ok"]
        # At most the one live batcher on top of the baseline — evicted
        # ones were closed, and their worker threads have exited.
        deadline = time.time() + 5
        while time.time() < deadline:
            alive = sum(
                t.name == "repro-serve-microbatch" for t in threading.enumerate()
            )
            if alive - before <= 1:
                break
            time.sleep(0.01)
        assert alive - before <= 1
        assert len(srv._batchers) <= 1
    finally:
        srv.close()


def test_microbatcher_rejects_wrong_length_flush():
    """A flush_fn returning the wrong row count fails loudly, not silently.

    The old slicing handed the first submitter a wrong-length vector and
    downstream submitters their neighbours' predictions.
    """
    mb = MicroBatcher(lambda X: np.zeros(len(X) + 1), max_batch=8)
    try:
        with pytest.raises(RuntimeError, match="refusing to mis-slice"):
            mb.submit([[1.0], [2.0]])
    finally:
        mb.close()
    mb = MicroBatcher(lambda X: np.zeros((len(X), 1)), max_batch=8)
    try:
        with pytest.raises(RuntimeError, match="refusing to mis-slice"):
            mb.submit([[1.0]])
    finally:
        mb.close()


def test_server_sheds_past_max_inflight(tmp_path):
    """Admission control: excess concurrent predicts get 503 overloaded."""
    reg = ModelRegistry(tmp_path)
    reg.publish("slow", _SlowModel())
    srv = ModelServer(reg, default_model="slow", max_inflight=1)
    first = {}

    def occupant():
        first.update(srv.handle({"op": "predict", "x": [[1.0]]}))

    t = threading.Thread(target=occupant)
    t.start()
    time.sleep(0.1)  # let the occupant take the only slot
    shed = srv.handle({"op": "predict", "x": [[1.0]]})
    t.join()
    assert first["ok"]
    assert shed == {"ok": False, "error": "overloaded", "code": 503}
    stats = srv.handle({"op": "stats"})
    assert stats["admission"]["max_inflight"] == 1
    assert stats["admission"]["shed"] == 1
    assert stats["admission"]["inflight"] == 0  # slots released either way


def test_microbatcher_sheds_past_max_pending():
    from repro.serve import Overloaded

    flushing = threading.Event()
    release = threading.Event()

    def gated(X):
        flushing.set()
        release.wait(timeout=10)
        return X[:, 0]

    mb = MicroBatcher(gated, max_batch=1, max_pending=1)
    results: dict = {}
    try:
        # A is dequeued by the worker and blocks inside the flush.
        ta = threading.Thread(target=lambda: results.update(a=mb.submit([[1.0]])))
        ta.start()
        assert flushing.wait(timeout=10)
        # B fills the single pending slot behind the busy worker.
        tb = threading.Thread(target=lambda: results.update(b=mb.submit([[2.0]])))
        tb.start()
        deadline = time.time() + 5
        while time.time() < deadline:
            with mb._submit_lock:
                if mb._pending >= 1:
                    break
            time.sleep(0.005)
        # C must shed immediately instead of queueing without bound.
        with pytest.raises(Overloaded):
            mb.submit([[3.0]])
        release.set()
        ta.join(timeout=10)
        tb.join(timeout=10)
        # Admitted work still completed with the right slices.
        np.testing.assert_allclose(results["a"], [1.0])
        np.testing.assert_allclose(results["b"], [2.0])
        # ... and the shed did not consume a pending slot.
        with mb._submit_lock:
            assert mb._pending == 0
    finally:
        release.set()
        mb.close()


def test_server_mixed_finite_nonfinite_predictions(tmp_path):
    reg = ModelRegistry(tmp_path)
    reg.publish("mixed", _MixedModel())
    srv = ModelServer(reg)
    resp = srv.handle({"op": "predict", "model": "mixed", "x": [[float(i)] for i in range(6)]})
    assert resp["ok"]
    assert resp["y"] == [0.0, None, None, 3.0, None, None]
    json.loads(json.dumps(resp))  # strict-JSON clean


def test_server_error_codes_distinguish_missing_from_malformed(server):
    srv, _ = server
    missing = srv.handle({"op": "predict", "model": "absent", "x": [[1, 1, 65536]]})
    assert not missing["ok"] and missing["code"] == 404
    missing_version = srv.handle(
        {"op": "predict", "model": "bcast", "version": 99, "x": [[1, 1, 65536]]}
    )
    assert not missing_version["ok"] and missing_version["code"] == 404
    malformed = srv.handle({"op": "predict", "x": [[1, 1]]})
    assert not malformed["ok"] and "code" not in malformed  # plain 400


def test_registry_names_tolerates_missing_models_dir(tmp_path, fitted):
    import shutil

    reg = ModelRegistry(tmp_path)
    reg.publish("m", fitted)
    assert reg.names() == ["m"]
    shutil.rmtree(tmp_path / "models")
    assert reg.names() == []
    assert reg.versions("m") == []
    assert "m" not in reg


def test_registry_latest_cache_sees_external_publish(tmp_path, fitted):
    """The mtime-keyed latest pointer must never pin a stale version.

    ``b`` resolves (and may cache) between two publishes that go through
    a *different* registry object — exactly what ``b``'s local-publish
    invalidation cannot see.  Both the granularity guard and the mtime
    comparison are exercised: a publish landing within the stamp's
    settle window defeats caching, a later one dirties the mtime.
    """
    a = ModelRegistry(tmp_path)
    b = ModelRegistry(tmp_path)
    a.publish("m", fitted)
    assert b.resolve("m").version == 1
    a.publish("m", fitted)
    assert b.resolve("m").version == 2
    time.sleep(0.06)  # past the settle window: the next resolve caches
    assert b.resolve("m").version == 2
    a.publish("m", fitted)
    assert b.resolve("m").version == 3
    # Memoized manifests stay correct for explicit versions.
    assert b.resolve("m", 1).version == 1
    assert b.resolve("m", 1).digest == a.resolve("m", 1).digest


def test_registry_resolve_hot_path_is_one_stat(tmp_path, fitted):
    """After the settle window, repeated resolves stop rescanning."""
    reg = ModelRegistry(tmp_path)
    reg.publish("m", fitted)
    time.sleep(0.06)
    reg.resolve("m")  # caches the latest pointer
    calls = []
    original = reg._version_numbers
    reg._version_numbers = lambda name: (calls.append(name), original(name))[1]
    try:
        for _ in range(5):
            assert reg.resolve("m").version == 1
        assert calls == []  # pointer cache hit: no directory scans
    finally:
        reg._version_numbers = original


# -- publish-after-fit hooks ---------------------------------------------------


def test_run_tune_job_publishes_best_model(tmp_path, bcast_data):
    from repro.experiments.harness import run_tune_job

    record = run_tune_job(
        app="bcast",
        model="cpr",
        n_train=256,
        n_test=64,
        grid=[{"cells": 4, "rank": 2, "max_sweeps": 5}],
        seed=0,
        publish_dir=str(tmp_path),
    )
    assert not record["skipped"]
    pub = record["published"]
    assert pub["name"] == "bcast-cpr" and pub["version"] == 1
    reg = ModelRegistry(tmp_path)
    mv = reg.resolve("bcast-cpr")
    assert mv.digest == pub["digest"]
    assert mv.meta["model"] == "cpr" and mv.meta["params"]["rank"] == 2
    model = reg.load("bcast-cpr")
    _, _, test = bcast_data
    assert np.all(model.predict(test.X) > 0)


def test_runtime_on_result_hook_skips_cache_hits(tmp_path):
    from repro.runtime import JobSpec, Runtime

    spec = JobSpec("repro.experiments.harness:run_tune_job", {
        "app": "bcast", "model": "cpr", "n_train": 128, "n_test": 32,
        "grid": [{"cells": 4, "rank": 2, "max_sweeps": 3}], "seed": 0,
    })
    calls: list = []
    rt = Runtime(cache_dir=tmp_path / "cache",
                 on_result=lambda s, r: calls.append((s.key, r["model"])))
    first = rt.run([spec])
    assert calls == [(spec.key, "cpr")]
    again = rt.run([spec])  # cache hit: hook must not re-fire
    assert calls == [(spec.key, "cpr")]
    assert again == first and rt.hits == 1
