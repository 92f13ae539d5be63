"""Serving throughput: batched engine vs per-point predict loops.

The acceptance bar for the serving subsystem: querying a published model
through the batched :class:`PredictionEngine` must beat the naive
per-point ``predict`` loop by >= 10x at 10k queries (the engine's whole
point is that one fused corner-blend call amortizes the Python/dispatch
overhead across the batch).  Also times the protocol layer in chunks:
in-process ``ModelServer.handle(dict)`` calls — request validation,
engine, and response building, with no socket and no JSON decode (the
HTTP round trip is measured by ``perfbench/run.py --workload serve``).
A second record times one 128-row ``PredictionEngine.predict`` on exafmm,
whose six interpolating modes give every row 64 corners, so the corner
evaluation shows there (on bcast, ``d = 3``, each row has only 8).
Records go to ``results/BENCH_serve.json`` for the CI regression gate;
the ``server_*`` keys name this in-process path.
"""
import tempfile
import time

import numpy as np

from repro.apps import Broadcast, ExaFMM
from repro.core import CPRModel
from repro.datasets import generate_dataset
from repro.serve import ModelRegistry, ModelServer, PredictionEngine

from _report import perf_asserts_enabled, report, report_perf, run_once

N_QUERIES = 10_000
N_TRAIN = 4096
_SERVER_CHUNK = 512  # rows per handle() request on the protocol path
_CORNER_ROWS = 128  # rows per request in the high-order predict record
_CORNER_TRAIN = 2048


def _best_of(fn, repeats=3):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _run():
    app = Broadcast()
    train = generate_dataset(app, N_TRAIN, seed=0)
    queries = generate_dataset(app, N_QUERIES, seed=1)
    model = CPRModel(space=app.space, cells=16, rank=4, seed=0).fit(
        train.X, train.y
    )

    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        mv = registry.publish("bcast-cpr", model, meta={"app": app.name})
        served = registry.load("bcast-cpr")
        engine = PredictionEngine(served, name=mv.ref)
        server = ModelServer(registry, default_model="bcast-cpr")

        # Naive consumer: one predict call per query point (measured once —
        # it is the slow case the engine exists to replace).
        t0 = time.perf_counter()
        y_loop = np.array([served.predict(x[None, :])[0] for x in queries.X])
        loop_s = time.perf_counter() - t0

        engine.predict(queries.X[:64])  # warm-up
        batched_s, y_batch = _best_of(lambda: engine.predict(queries.X))
        np.testing.assert_allclose(y_batch, y_loop, rtol=1e-10)

        # Protocol path: in-process handle() calls on request dicts.
        chunks = [
            queries.X[i : i + _SERVER_CHUNK].tolist()
            for i in range(0, N_QUERIES, _SERVER_CHUNK)
        ]

        def through_server():
            out = []
            for x in chunks:
                resp = server.handle({"op": "predict", "x": x})
                assert resp["ok"], resp
                out.extend(resp["y"])
            return np.asarray(out)

        through_server()  # warm-up (engine construction)
        server_s, y_server = _best_of(through_server)
        np.testing.assert_allclose(y_server, y_loop, rtol=1e-10)

    return [
        {
            "config": "serve_10k",
            "queries": N_QUERIES,
            "train": N_TRAIN,
            # loop_seconds deliberately avoids the gated *_s suffix: the per-point
            # Python loop is the baseline being beaten, not a kernel to gate.
            "loop_seconds": round(loop_s, 4),
            "batched_s": round(batched_s, 4),
            "server_s": round(server_s, 4),
            "loop_qps": round(N_QUERIES / loop_s),
            "batched_qps": round(N_QUERIES / batched_s),
            "server_qps": round(N_QUERIES / server_s),
            "batched_speedup": round(loop_s / batched_s, 2),
            "server_speedup": round(loop_s / server_s, 2),
        },
        _run_high_order(),
    ]


def _run_high_order():
    """One 128-row engine predict on exafmm (64 corners per row)."""
    app = ExaFMM()
    train = generate_dataset(app, _CORNER_TRAIN, seed=0)
    model = CPRModel(space=app.space, cells=16, rank=4, seed=0).fit(
        train.X, train.y
    )
    X = app.space.sample(_CORNER_ROWS, rng=np.random.default_rng(1))
    engine = PredictionEngine(model, name="exafmm-cpr")
    engine.predict(X)  # warm-up
    predict_s, y = _best_of(lambda: engine.predict(X), repeats=200)
    np.testing.assert_array_equal(y, model.predict(X))
    return {
        "config": "predict_128_exafmm",
        "rows": _CORNER_ROWS,
        "train": _CORNER_TRAIN,
        "corners": 2 ** model.grid_.order,
        "engine_predict_s": round(predict_s, 6),
    }


def test_serve_throughput(benchmark):
    records = run_once(benchmark, _run)
    r, corner = records
    report("serve_throughput", {
        "headers": ["path", "seconds", "queries/s", "speedup vs loop"],
        "rows": [
            ["per-point loop", r["loop_seconds"], r["loop_qps"], 1.0],
            ["batched engine", r["batched_s"], r["batched_qps"],
             r["batched_speedup"]],
            ["handle(), in-process", r["server_s"], r["server_qps"],
             r["server_speedup"]],
            ["exafmm 128-row engine predict", corner["engine_predict_s"],
             round(corner["rows"] / corner["engine_predict_s"]), "-"],
        ],
        "notes": "batched engine >= 10x per-point loop at 10k queries",
    })
    report_perf("serve", records)

    if not perf_asserts_enabled():
        return
    # Acceptance: the batched engine beats the per-point loop by >= 10x,
    # and the in-process protocol layer keeps at least half that advantage.
    assert r["batched_speedup"] >= 10.0, r
    assert r["server_speedup"] >= 5.0, r
